package experiments

import (
	"fmt"

	"smarco/internal/chip"
	"smarco/internal/kernels"
	"smarco/internal/runner"
	"smarco/internal/stats"
)

// Fig18Result is one benchmark's NoC-throughput series across channel
// slice widths (Fig. 18). Throughput is packets moved per kilocycle,
// normalized to the 16-byte slicing.
type Fig18Result struct {
	Benchmark  string
	Throughput map[int]float64 // slice bytes -> normalized throughput rate
}

// fig18Config builds a NoC-bound chip: full 16-core sub-rings, every
// thread context busy, and memory fast enough that the rings — not the
// DRAM banks — limit throughput. MACT is disabled so the raw
// small-granularity packets reach the links, as in the paper's NoC study.
func fig18Config(scale Scale) chip.Config {
	cfg := chip.DefaultConfig()
	if scale != ScalePaper {
		cfg.SubRings = 2
		cfg.MCs = 2
		cfg.Executor = "serial"
	}
	cfg.MACT.Enabled = false
	cfg.DRAM.Banks = 32
	cfg.DRAM.RowHitCycles = 8
	cfg.DRAM.RowMissCycles = 14
	cfg.DRAM.BusBytesPerCycle = 64
	return cfg
}

// Fig18HighDensityNoC reproduces Fig. 18: sweep the sliced-channel width
// over {16, 8, 4, 2} bytes and measure packet throughput. benchmarks
// defaults to all six.
func Fig18HighDensityNoC(scale Scale, seed uint64, benchmarks ...string) ([]Fig18Result, error) {
	if len(benchmarks) == 0 {
		benchmarks = Benchmarks
	}
	slices := []int{16, 8, 4, 2}
	// Benchmark × slice grid on the run pool; identical results at any
	// pool size.
	rates, err := runner.Map(pool, len(benchmarks)*len(slices), func(i int) (float64, error) {
		name, slice := benchmarks[i/len(slices)], slices[i%len(slices)]
		cfg := fig18Config(scale)
		cfg.SubLink.SliceBytes = slice
		cfg.MainLink.SliceBytes = slice
		w := kernels.MustNew(name, kernels.Config{
			Seed:  seed,
			Tasks: cfg.Threads(),
			Scale: workloadScale(scale, name),
		})
		c, err := runOnChip(cfg, w, cycleBudget(scale))
		if err != nil {
			return 0, fmt.Errorf("fig18 %s slice=%d: %w", name, slice, err)
		}
		m := c.Metrics()
		return float64(m.PacketsMoved) / float64(m.Cycles) * 1000, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Fig18Result
	for bi, name := range benchmarks {
		res := Fig18Result{Benchmark: name, Throughput: map[int]float64{}}
		base := rates[bi*len(slices)] // slice index 0 is the 16B baseline
		for si, slice := range slices {
			if base > 0 {
				res.Throughput[slice] = rates[bi*len(slices)+si] / base
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig18Table renders the series.
func Fig18Table(results []Fig18Result) *stats.Table {
	t := stats.NewTable("Fig. 18 — NoC throughput vs channel slice width (normalized to 16B)",
		"benchmark", "16B", "8B", "4B", "2B")
	for _, r := range results {
		t.AddRow(r.Benchmark, r.Throughput[16], r.Throughput[8], r.Throughput[4], r.Throughput[2])
	}
	return t
}
