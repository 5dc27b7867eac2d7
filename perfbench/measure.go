package main

import (
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"sort"
	"time"
)

// minRepeats is the fewest full repeats a run makes, however short
// --seconds is: the determinism guard needs two, and a traced run needs
// one untraced and one traced.
const minRepeats = 2

// setups is how many set-ups a run times for setup_s, each discarding the
// machine it builds. They run back to back after the repeats, so the
// median does not depend on how many repeats there were; without a forced
// GC between them the heap stays warm, and the median of this many skips
// the set-ups a GC cycle lands in.
const setups = 41

// result accumulates one benchmark run.
type result struct {
	attempted, failed int
	setup             []float64 // seconds per timed set-up
	runS, simS        []float64 // untraced repeats: run_s and the Run call alone
	tracedRunS        []float64
	layerS            []map[string]float64 // traced repeats: host seconds per layer
	first             outcome
	spans             *spans
	peakMemMB         float64 // peak resident set over the repeats
}

// repeatTimes is one repeat's host timings.
type repeatTimes struct {
	setup, run, sim float64
	// profile is a traced repeat's engine-profiler time per phase and
	// shard class.
	profile map[string]float64
}

// measure runs the workload until --seconds have passed and at least
// minRepeats repeats are made, alternating untraced and traced repeats when
// traced is set. Every repeat's simulated outcome must equal the first's.
func measure(w workload, seed uint64, seconds time.Duration, traced bool, log io.Writer) (*result, error) {
	res := &result{spans: newSpans()}
	start := time.Now()
	for i := 0; i < minRepeats || time.Since(start) < seconds; i++ {
		var sp *spans
		if traced && i%2 == 1 {
			sp = res.spans
			sp.repeat = i
		}
		t, o, err := repeatOnce(w, seed, sp, res)
		if err != nil {
			return res, fmt.Errorf("%s seed %d repeat %d: %w", w.name, seed, i, err)
		}
		if i == 0 {
			res.first = o
		} else if err := sameOutcome(res.first, o); err != nil {
			return res, fmt.Errorf("%s seed %d: repeat %d (traced=%v) differs from repeat 0: %w", w.name, seed, i, sp != nil, err)
		}
		if sp == nil {
			res.runS = append(res.runS, t.run)
			res.simS = append(res.simS, t.sim)
		} else {
			res.tracedRunS = append(res.tracedRunS, t.run)
			layers := t.profile
			for _, name := range hostLayers {
				layers[name+"_s"] = sp.seconds(i, name)
			}
			res.layerS = append(res.layerS, layers)
		}
		fmt.Fprintf(log, "repeat %d traced=%v setup %.4fs run %.4fs (simulate %.4fs) sim_cycles %d\n",
			i, sp != nil, t.setup, t.run, t.sim, o.cycles)
	}
	// Peak memory is read here, before the back-to-back set-ups below
	// leave garbage for the GC to pace: it is the repeats' peak.
	var err error
	if res.peakMemMB, err = peakMemMB(); err != nil {
		return res, err
	}
	for len(res.setup) < setups {
		t0 := time.Now()
		if _, err := w.setup(seed, nil); err != nil {
			return res, fmt.Errorf("%s seed %d set-up: %w", w.name, seed, err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	return res, nil
}

// hostLayers are the span names whose per-repeat host time the traced run
// reports (as <name>_s).
var hostLayers = []string{
	"kernels.gen", "chip.build", "card.new", "chip.submit", "chip.run", "card.run",
	"kernels.check", "chip.metrics", "card.report",
}

// repeatOnce sets the workload up, runs, verifies and collects it once.
// A non-nil sp traces the repeat: spans around every call into the
// simulator plus the engine's per-shard profiler.
func repeatOnce(w workload, seed uint64, sp *spans, res *result) (repeatTimes, outcome, error) {
	var t repeatTimes
	runtime.GC()
	t0 := time.Now()
	end := sp.begin("setup")
	inst, err := w.setup(seed, sp)
	end()
	t.setup = time.Since(t0).Seconds()
	if err != nil {
		return t, outcome{}, fmt.Errorf("set-up: %w", err)
	}
	res.attempted += inst.tasks
	if sp != nil {
		for _, c := range inst.chips {
			c.EnableProfile()
		}
	}
	runtime.GC()
	t1 := time.Now()
	defer sp.begin("run")()
	cycles, err := inst.run(sp)
	t.sim = time.Since(t1).Seconds()
	if err != nil {
		res.failed += inst.tasks
		return t, outcome{}, fmt.Errorf("run: %w", err)
	}
	failed, err := inst.check(sp)
	res.failed += failed
	if err != nil {
		return t, outcome{}, fmt.Errorf("output check: %d tasks failed: %w", failed, err)
	}
	o := inst.collect(sp)
	t.run = time.Since(t1).Seconds()
	o.cycles = cycles
	if sp != nil {
		t.profile = profileSeconds(inst.chips)
	}
	return t, o, nil
}

// sameOutcome reports the first simulated quantity two repeats disagree on.
func sameOutcome(a, b outcome) error {
	switch {
	case a.cycles != b.cycles:
		return fmt.Errorf("sim_cycles %d vs %d", a.cycles, b.cycles)
	case a.instructions != b.instructions:
		return fmt.Errorf("instructions %d vs %d", a.instructions, b.instructions)
	case !slices.Equal(a.latencies, b.latencies):
		return fmt.Errorf("per-task latencies differ")
	}
	if len(a.counters) != len(b.counters) {
		return fmt.Errorf("counter sets differ")
	}
	var names []string
	for name := range a.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if va, vb := a.counters[name], b.counters[name]; va != vb {
			return fmt.Errorf("%s %v vs %v", name, va, vb)
		}
	}
	return nil
}

// endToEnd is the untraced run's end-to-end metrics: medians over repeats
// for host times, the (identical) simulated values otherwise.
func (r *result) endToEnd() map[string]float64 {
	o := r.first
	sim := median(r.simS)
	lat := sortedCopy(o.latencies)
	return map[string]float64{
		"run_s":            median(r.runS),
		"setup_s":          median(r.setup),
		"sim_cycles_per_s": float64(o.cycles) / sim,
		"sim_kips":         float64(o.instructions) / sim / 1e3,
		"peak_mem_mb":      r.peakMemMB,
		"sim_cycles":       float64(o.cycles),
		"task_p50_cycles":  float64(percentile(lat, 50)),
		"task_p99_cycles":  float64(percentile(lat, 99)),
	}
}

// perLayer is the traced run's per-layer metrics: the simulated counters,
// the medians of the traced repeats' host times, and the tracing overhead.
func (r *result) perLayer(seed uint64) (map[string]float64, error) {
	if len(r.layerS) == 0 {
		return nil, fmt.Errorf("no traced repeat")
	}
	m := maps.Clone(r.first.counters)
	for name := range r.layerS[0] {
		var v []float64
		for _, l := range r.layerS {
			v = append(v, l[name])
		}
		m[name] = median(v)
	}
	m["trace.overhead_pct"] = 100 * (median(r.tracedRunS)/median(r.runS) - 1)
	m["failed_frac"] = float64(r.failed) / float64(r.attempted)
	m["sampling.est_err_pct"] = 0
	if r.first.counters["sampling.windows"] > 0 {
		ref, err := referenceCycles(seed)
		if err != nil {
			return nil, err
		}
		m["sampling.est_err_pct"] = 100 * (float64(r.first.cycles) - float64(ref)) / float64(ref)
	}
	return m, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
