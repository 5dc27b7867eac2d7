package experiments

import (
	"fmt"

	"smarco/internal/chip"
	"smarco/internal/kernels"
	"smarco/internal/stats"
)

// Fig17Result is one benchmark's IPC-vs-thread-count series on a single
// TCG core (Fig. 17).
type Fig17Result struct {
	Benchmark string
	IPC       map[int]float64 // threads (1..8) -> core IPC
}

// Fig17TCGIPC reproduces Fig. 17: per-core IPC as the number of resident
// threads grows from 1 to 8 on the 4-lane, in-pair TCG.
func Fig17TCGIPC(scale Scale, seed uint64) ([]Fig17Result, error) {
	// A one-core chip: 1 sub-ring × 1 core, one memory controller.
	cfg := chip.DefaultConfig()
	cfg.SubRings = 1
	cfg.CoresPerSub = 1
	cfg.MCs = 1
	cfg.Executor = "serial"

	work := map[string]int{
		"wordcount": 384, "kmp": 384, "terasort": 24,
		"search": 24, "kmeans": 12, "rnc": 0,
	}
	if scale == ScalePaper {
		work = map[string]int{
			"wordcount": 1024, "kmp": 1024, "terasort": 40,
			"search": 48, "kmeans": 24, "rnc": 0,
		}
	}

	var out []Fig17Result
	for _, name := range Benchmarks {
		res := Fig17Result{Benchmark: name, IPC: map[int]float64{}}
		for threads := 1; threads <= 8; threads++ {
			// threads resident tasks; each long enough that the core
			// stays saturated while they coexist.
			w := kernels.MustNew(name, kernels.Config{
				Seed: seed, Tasks: threads, Scale: work[name],
			})
			c := chip.New(cfg, w.Mem)
			c.Submit(w.Tasks)
			if _, err := c.Run(cycleBudget(scale)); err != nil {
				return nil, fmt.Errorf("fig17 %s threads=%d: %w", name, threads, err)
			}
			if err := w.Check(); err != nil {
				return nil, fmt.Errorf("fig17 %s: %w", name, err)
			}
			res.IPC[threads] = c.Cores[0].Stats.IPC()
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig17Table renders the series.
func Fig17Table(results []Fig17Result) *stats.Table {
	t := stats.NewTable("Fig. 17 — TCG core IPC vs resident threads",
		"benchmark", "1", "2", "3", "4", "5", "6", "7", "8")
	for _, r := range results {
		t.AddRow(r.Benchmark,
			r.IPC[1], r.IPC[2], r.IPC[3], r.IPC[4],
			r.IPC[5], r.IPC[6], r.IPC[7], r.IPC[8])
	}
	return t
}
