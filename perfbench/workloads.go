package main

import (
	"fmt"
	"math"
	"sort"

	"smarco/internal/card"
	"smarco/internal/chaos"
	"smarco/internal/chip"
	"smarco/internal/experiments"
	"smarco/internal/kernels"
	"smarco/internal/sampling"
)

// budget caps every simulated run; each workload finishes far inside it, so
// it only matters when the simulator wedges.
const budget = 200_000_000

// Workload sizes. README.md gives the reasons for each.
const (
	spmTasks, spmScale   = 4096, 512
	cardTasks, cardScale = 2000, 32
	// cardMeanGap is the mean Poisson inter-arrival gap in cycles: about
	// 1.5x the card's saturated service time per task at cardScale, so
	// latency measures service plus queueing, not a growing backlog.
	cardMeanGap                = 2700
	sampledTasks, sampledScale = 40960, 16
)

// sampledCadence is small-sampled-kmp's schedule: one 10k-cycle detailed
// window per 100k estimated cycles.
var sampledCadence = sampling.Config{Every: 100_000, Window: 10_000}

// workload is one benchmark workload: setup generates its inputs from the
// seed and builds the simulated machine, recording spans into sp.
type workload struct {
	name  string
	setup func(seed uint64, sp *spans) (*instance, error)
}

var workloads = []workload{
	{"medium-spm-kmp", func(seed uint64, sp *spans) (*instance, error) {
		return setupChip(mediumChip(), "kmp", kernels.Config{Seed: seed, Tasks: spmTasks, Scale: spmScale, StageSPM: true}, sp)
	}},
	{"card-poisson-mix", setupCard},
	{"small-sampled-kmp", func(seed uint64, sp *spans) (*instance, error) {
		return setupChip(sampledChip(false), "kmp", sampledInputs(seed), sp)
	}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// mediumChip is the 8x8 engine-benchmark chip on the classic 1-cycle-link
// machine, forced onto the serial executor.
func mediumChip() chip.Config {
	cfg, err := experiments.EngineChipConfig("medium")
	if err != nil {
		panic(err) // "medium" is a built-in configuration
	}
	cfg.Executor = "serial"
	return cfg
}

// sampledChip is the 16-core test chip under sampledCadence, or at full
// detail for the reference count.
func sampledChip(fullDetail bool) chip.Config {
	cfg := chip.SmallConfig()
	cfg.Executor = "serial"
	if !fullDetail {
		cfg.Sampling = sampledCadence
	}
	return cfg
}

func sampledInputs(seed uint64) kernels.Config {
	return kernels.Config{Seed: seed, Tasks: sampledTasks, Scale: sampledScale}
}

// cardChip is the chaos harness's default CI processor: 2 sub-rings of 4
// cores, one memory controller.
func cardChip() chip.Config {
	cfg := chip.SmallConfig()
	cfg.SubRings, cfg.CoresPerSub, cfg.MCs = 2, 4, 1
	cfg.Executor = "serial"
	return cfg
}

// instance is one set-up workload, ready to run once.
type instance struct {
	tasks int
	// chips are the simulated processors (two on the card), exposed so
	// traced repeats can install the engine profiler before the run.
	chips []*chip.Chip
	// run submits the work and simulates it to completion.
	run func(sp *spans) (uint64, error)
	// check verifies the outputs and counts failed tasks.
	check func(sp *spans) (failed int, err error)
	// collect gathers the simulated results after a successful check.
	collect func(sp *spans) outcome
}

// outcome is everything a run simulated. Every field is a pure function of
// the inputs, so repeats and traced runs must agree on all of them.
type outcome struct {
	cycles       uint64 // simulated, or for a sampled run estimated, cycles to finish
	instructions uint64 // timed plus functionally fast-forwarded
	latencies    []uint64
	counters     map[string]float64 // simulated per-layer counters
}

func setupChip(cfg chip.Config, kernel string, kc kernels.Config, sp *spans) (*instance, error) {
	end := sp.begin("kernels.gen")
	w, err := kernels.New(kernel, kc)
	end()
	if err != nil {
		return nil, err
	}
	end = sp.begin("chip.build")
	c, err := chip.Build(cfg, w.Mem)
	end()
	if err != nil {
		return nil, err
	}
	inst := &instance{tasks: len(w.Tasks), chips: []*chip.Chip{c}}
	inst.run = func(sp *spans) (uint64, error) {
		end := sp.begin("chip.submit")
		c.Submit(w.Tasks)
		end()
		defer sp.begin("chip.run")()
		return c.Run(budget)
	}
	inst.check = func(sp *spans) (int, error) {
		defer sp.begin("kernels.check")()
		if err := w.Check(); err != nil {
			return len(w.Tasks), err
		}
		// A sampled run retires the fast-forwarded tasks functionally; the
		// rest must complete on the timing model.
		n := c.CompletedTasks()
		if s := c.Sampled(); s != nil {
			n += s.FastTasks
		}
		if n != len(w.Tasks) {
			return len(w.Tasks) - n, fmt.Errorf("%d of %d tasks completed", n, len(w.Tasks))
		}
		return 0, nil
	}
	inst.collect = func(sp *spans) outcome {
		defer sp.begin("chip.metrics")()
		m := c.Metrics()
		o := outcome{
			instructions: m.Instructions,
			latencies:    chipLatencies(c),
			counters:     chipCounters([]*chip.Chip{c}, []chip.Metrics{m}),
		}
		if s := c.Sampled(); s != nil {
			o.instructions += s.FFInstructions
			o.counters["sampling.windows"] = float64(len(s.Windows))
			o.counters["sampling.detailed_cycles"] = float64(s.DetailedCycles)
			o.counters["sampling.detailed_frac"] = float64(s.DetailedCycles) / float64(s.EstCycles)
			o.counters["sampling.ff_tasks"] = float64(s.FastTasks)
			o.counters["sampling.ff_instructions"] = float64(s.FFInstructions)
			o.counters["sampling.ci_pct"] = 100 * s.RelErr
		}
		return o
	}
	return inst, nil
}

// chipLatencies is each timed task's simulated latency. A batch is released
// at cycle 0, so a task's latency is its completion cycle; in a sampled run
// only detailed windows are timed, and each window's batch is released at
// the window's entry cycle.
func chipLatencies(c *chip.Chip) []uint64 {
	var lat []uint64
	s := c.Sampled()
	for _, r := range c.Results() {
		if s == nil {
			lat = append(lat, r.Done)
			continue
		}
		for _, w := range s.Windows {
			if r.Done >= w.Start && r.Done <= w.End {
				lat = append(lat, r.Done-w.Start)
				break
			}
		}
	}
	return lat
}

func setupCard(seed uint64, sp *spans) (*instance, error) {
	end := sp.begin("kernels.gen")
	tr, err := chaos.Generate(chaos.TrafficConfig{Seed: seed, Tasks: cardTasks, MeanGap: cardMeanGap, Scale: cardScale})
	end()
	if err != nil {
		return nil, err
	}
	end = sp.begin("card.new")
	cd, err := card.New(card.Config{Processors: 2, Chip: cardChip(), PCIe: card.DefaultPCIe()}, tr.Store)
	end()
	if err != nil {
		return nil, err
	}
	inst := &instance{tasks: len(tr.Tasks), chips: cd.Chips()}
	inst.run = func(sp *spans) (uint64, error) {
		defer sp.begin("card.run")()
		return cd.Run(tr.Tasks, budget)
	}
	inst.check = func(sp *spans) (int, error) {
		defer sp.begin("kernels.check")()
		// A task fails when it is abandoned or shed, or when its
		// workload's output is wrong.
		unresolved := make([]int, len(tr.Workloads))
		tasks := make([]int, len(tr.Workloads))
		var firstErr error
		for _, ts := range cd.TaskStates() {
			w := tr.Owner[ts.ID]
			tasks[w]++
			if !ts.Completed {
				unresolved[w]++
				if firstErr == nil {
					firstErr = fmt.Errorf("task %d unresolved: %q", ts.ID, ts.Reason)
				}
			}
		}
		failed := 0
		for i, w := range tr.Workloads {
			if err := w.Check(); err != nil {
				failed += tasks[i]
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", w.Name, err)
				}
				continue
			}
			failed += unresolved[i]
		}
		return failed, firstErr
	}
	inst.collect = func(sp *spans) outcome {
		end := sp.begin("card.report")
		rep := cd.Report()
		states := cd.TaskStates()
		end()
		release := make(map[int]uint64, len(tr.Tasks))
		for _, t := range tr.Tasks {
			release[t.ID] = t.ReleaseCycle
		}
		lat := make([]uint64, 0, len(states))
		for _, ts := range states {
			if !ts.Completed {
				// A failed task counts as over any latency limit.
				lat = append(lat, math.MaxUint64)
				continue
			}
			lat = append(lat, ts.Resolved-release[ts.ID])
		}
		end = sp.begin("chip.metrics")
		var ms []chip.Metrics
		for _, c := range cd.Chips() {
			ms = append(ms, c.Metrics())
		}
		end()
		o := outcome{latencies: lat, counters: chipCounters(cd.Chips(), ms)}
		for _, m := range ms {
			o.instructions += m.Instructions
		}
		o.counters["card.submitted"] = float64(rep.Submitted)
		o.counters["card.completed"] = float64(rep.Completed)
		o.counters["card.resubmits"] = float64(rep.Resubmits)
		o.counters["card.timeouts"] = float64(rep.Timeouts)
		o.counters["card.duplicates"] = float64(rep.Duplicates)
		return o
	}
	return inst, nil
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []uint64, p int) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	return sorted[max(rank, 1)-1]
}

func sortedCopy(v []uint64) []uint64 {
	s := append([]uint64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
