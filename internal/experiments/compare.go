package experiments

import (
	"fmt"

	"smarco/internal/chip"
	"smarco/internal/conv"
	"smarco/internal/kernels"
	"smarco/internal/power"
	"smarco/internal/stats"
)

// Fig22Result is one benchmark's SmarCo-vs-Xeon comparison (Fig. 22).
type Fig22Result struct {
	Benchmark        string
	SmarCoSeconds    float64
	XeonSeconds      float64
	Speedup          float64
	SmarCoEnergy     float64 // joules
	XeonEnergy       float64
	EnergyEffGain    float64 // (Xeon energy per work) / (SmarCo energy per work)
	SmarCoAvgWatts   float64
	XeonAvgWatts     float64
	SmarCoChipCycles uint64
}

// fig22Scale sizes per-task work so both machines run long enough that
// fixed costs do not dominate (the paper's runs lasted seconds).
func fig22Scale(scale Scale, name string) int {
	paper := scale == ScalePaper
	switch name {
	case "wordcount", "kmp":
		if paper {
			return 4096
		}
		return 2048
	case "terasort":
		if paper {
			return 128
		}
		return 96
	case "search":
		if paper {
			return 256
		}
		return 128
	case "kmeans":
		if paper {
			return 128
		}
		return 96
	default: // rnc: packet payload bytes
		if paper {
			return 1024
		}
		return 512
	}
}

// fig22Run executes one benchmark on both machines and derives the
// performance and energy comparison.
func fig22Run(cfg chip.Config, node power.Node, scale Scale, name string, seed uint64,
	xeonThreads int) (Fig22Result, error) {
	mk := func() *kernels.Workload {
		return kernels.MustNew(name, kernels.Config{
			Seed:     seed,
			Tasks:    cfg.Threads(), // one task per SmarCo hardware thread
			Scale:    fig22Scale(scale, name),
			StageSPM: true,
		})
	}
	w := mk()
	c, err := runOnChip(cfg, w, 8*cycleBudget(scale))
	if err != nil {
		return Fig22Result{}, err
	}
	m := c.Metrics()
	smSeconds := c.Seconds(c.Now())
	act := power.ActivityFromMetrics(m, cfg)
	smWatts := power.AvgPower(power.ChipBreakdown(cfg, node), act)

	// The same workload on the conventional machine, fully threaded. The
	// paper's Phoenix++ runs reuse a warm thread pool, so thread-spawn
	// cost is excluded here (it is the subject of Fig. 23 instead).
	wx := mk()
	for i := range wx.Tasks {
		wx.Tasks[i].Stage = nil // staging is a SmarCo concept
	}
	xe := conv.XeonE78890V4()
	xe.ThreadSpawnCycles = 0
	xr := conv.Run(xe, wx, xeonThreads)
	if err := wx.Check(); err != nil {
		return Fig22Result{}, fmt.Errorf("xeon %s output: %w", name, err)
	}
	xWatts := power.XeonPower(1 - xr.IdleRatio)

	res := Fig22Result{
		Benchmark:        name,
		SmarCoSeconds:    smSeconds,
		XeonSeconds:      xr.Seconds,
		Speedup:          xr.Seconds / smSeconds,
		SmarCoEnergy:     power.Energy(smWatts, smSeconds),
		XeonEnergy:       power.Energy(xWatts, xr.Seconds),
		SmarCoAvgWatts:   smWatts,
		XeonAvgWatts:     xWatts,
		SmarCoChipCycles: c.Now(),
	}
	res.EnergyEffGain = res.XeonEnergy / res.SmarCoEnergy
	return res, nil
}

// Fig22VsXeon reproduces Fig. 22: performance and energy-efficiency of the
// 256-core SmarCo (32 nm model) against the Xeon baseline across the six
// benchmarks. The paper reports 4.86–18.57× speedup (avg 10.11×) and
// 3.34–12.77× energy efficiency (avg 6.95×).
func Fig22VsXeon(scale Scale, seed uint64) ([]Fig22Result, error) {
	cfg := chipConfig(scale)
	var out []Fig22Result
	for _, name := range Benchmarks {
		r, err := fig22Run(cfg, power.Node32, scale, name, seed, 48)
		if err != nil {
			return nil, fmt.Errorf("fig22 %s: %w", name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig23Point is one thread-count measurement of the scalability study.
type Fig23Point struct {
	Threads    int
	SmarCoPerf float64 // work per second (normalized: shards/second)
	XeonPerf   float64
}

// Fig23Scalability reproduces Fig. 23: a fixed KMP problem is partitioned
// into N shards, one per thread, on both machines. Performance is problems
// per second. On the Xeon, per-thread spawn and scheduling overheads grow
// with N while useful parallelism caps at its 48 contexts, so throughput
// peaks and then falls; SmarCo starts slower (simple in-order cores) but
// keeps rising with its 2048 contexts — the crossover the paper puts near
// 64 threads.
func Fig23Scalability(scale Scale, seed uint64) ([]Fig23Point, error) {
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	totalWork := 64 << 10 // bytes of text, fixed
	cfg := chipConfig(scale)
	if scale == ScalePaper {
		counts = append(counts, 1024, 2048)
		totalWork = 1 << 20
	}
	var out []Fig23Point
	for _, n := range counts {
		shard := totalWork / n
		if shard < 64 {
			shard = 64
		}
		// SmarCo side: n concurrent shard tasks on the chip.
		w := kernels.MustNew("kmp", kernels.Config{Seed: seed, Tasks: n, Scale: shard})
		c, err := runOnChip(cfg, w, 4*cycleBudget(scale))
		if err != nil {
			return nil, fmt.Errorf("fig23 smarco n=%d: %w", n, err)
		}
		smPerf := 1 / c.Seconds(c.Now())

		wx := kernels.MustNew("kmp", kernels.Config{Seed: seed, Tasks: n, Scale: shard})
		xr := conv.Run(conv.XeonE78890V4(), wx, n)
		xPerf := 1 / xr.Seconds

		out = append(out, Fig23Point{Threads: n, SmarCoPerf: smPerf, XeonPerf: xPerf})
	}
	return out, nil
}

// Fig26Prototype reproduces Fig. 26: the 40 nm prototype (256 threads) vs
// the Xeon. The paper reports 2.05–6.84× energy-efficiency gains (avg
// 3.85×). The prototype is modelled as a 32-core chip (256 threads) at
// 40 nm and 1.0 GHz.
func Fig26Prototype(scale Scale, seed uint64) ([]Fig22Result, error) {
	cfg := chip.DefaultConfig()
	cfg.SubRings = 2
	cfg.CoresPerSub = 16
	cfg.MCs = 2
	cfg.ClockHz = 1.0e9
	if scale == ScaleSmall {
		cfg.SubRings = 1
		cfg.CoresPerSub = 8
		cfg.MCs = 1
		cfg.Executor = "serial"
	}
	var out []Fig22Result
	for _, name := range Benchmarks {
		r, err := fig22Run(cfg, power.Node40, scale, name, seed, 48)
		if err != nil {
			return nil, fmt.Errorf("fig26 %s: %w", name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Table1AreaPower regenerates Table 1 (exact by calibration).
func Table1AreaPower() *stats.Table {
	return power.Table1().Table("Table 1 — area and power at 32 nm")
}

// Table2Configs regenerates Table 2's configuration comparison.
func Table2Configs() *stats.Table {
	sm := chip.DefaultConfig()
	xe := conv.XeonE78890V4()
	t := stats.NewTable("Table 2 — machine configurations", "parameter", "Xeon E7-8890V4", "SmarCo")
	t.AddRow("cores", fmt.Sprintf("%d cores, %d threads", xe.Cores, xe.Cores*xe.SMT),
		fmt.Sprintf("%d cores, %d threads", sm.Cores(), sm.Threads()))
	t.AddRow("clock", "2.2-3.4 GHz", "1.5 GHz")
	t.AddRow("L1 I$", "0.77 MB total", "4 MB total")
	t.AddRow("L1 D$", "0.77 MB total", "4 MB total")
	t.AddRow("L2/LLC vs SPM", "6 MB L2 + 60 MB LLC", "32 MB SPM")
	t.AddRow("NoC", "QPI", "hierarchical ring, sub 256b / main 512b")
	t.AddRow("memory", "85 GB/s", "136.5 GB/s (4 x DDR4-2133)")
	t.AddRow("process", "14 nm", "32 nm (model)")
	t.AddRow("power", fmt.Sprintf("%.0f W TDP", power.XeonTDP),
		fmt.Sprintf("%.2f W peak", power.Table1().TotalPower()))
	t.AddRow("die area", "-", fmt.Sprintf("%.2f mm^2", power.Table1().TotalArea()))
	return t
}

// Fig22Table renders Fig. 22.
func Fig22Table(results []Fig22Result, title string) *stats.Table {
	t := stats.NewTable(title,
		"benchmark", "speedup", "energy-eff gain", "SmarCo W", "Xeon W")
	var sumS, sumE float64
	for _, r := range results {
		t.AddRow(r.Benchmark, r.Speedup, r.EnergyEffGain, r.SmarCoAvgWatts, r.XeonAvgWatts)
		sumS += r.Speedup
		sumE += r.EnergyEffGain
	}
	n := float64(len(results))
	t.AddRow("average", sumS/n, sumE/n, "", "")
	return t
}

// Fig23Table renders Fig. 23.
func Fig23Table(points []Fig23Point) *stats.Table {
	t := stats.NewTable("Fig. 23 — KMP scalability (tasks/second)",
		"threads", "SmarCo", "Xeon E7-8890V4")
	for _, p := range points {
		t.AddRow(p.Threads, p.SmarCoPerf, p.XeonPerf)
	}
	return t
}
