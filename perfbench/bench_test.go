package main

import (
	"strconv"
	"testing"
)

// heldOutSeed is a seed kept out of tuning runs: every workload runs on it
// here, so a claim made on the usual seeds can be checked on fresh inputs.
const heldOutSeed = 97

// TestWorkloadsOnHeldOutSeed runs every workload once untraced and once
// traced on heldOutSeed: outputs must verify, every simulated count must
// repeat exactly, and both metric sets must match BENCHMARK.json. About
// three minutes on a 2-CPU host, most of it the sampled workload's
// full-detail reference (heldOutSeed is not recorded).
func TestWorkloadsOnHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if !sp.hasWorkload(w.name) {
				t.Fatalf("%s is not declared in BENCHMARK.json", w.name)
			}
			res, err := measure(w, heldOutSeed, 0, true, testLog{t})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d tasks failed", res.failed, res.attempted)
			}
			if _, err := bind(sp.EndToEnd, res.endToEnd()); err != nil {
				t.Error(err)
			}
			layers, err := res.perLayer(heldOutSeed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bind(sp.PerLayer, layers); err != nil {
				t.Error(err)
			}
			t.Logf("sim_cycles %d, est_err_pct %.3f", res.first.cycles, layers["sampling.est_err_pct"])
		})
	}
}

// TestReferenceIsCurrent re-measures the recorded full-detail cycle count
// of small-sampled-kmp for seed 1. It fails after any model change that
// moves the count: re-record with
//
//	bash perfbench/run.sh --record-reference 10 --commit <commit> > perfbench/reference.json
func TestReferenceIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sampled workload at full detail (about a minute)")
	}
	r, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if r.Commit == "" || len(r.FullDetailCycles) == 0 {
		t.Fatal("reference.json records no commit or no counts")
	}
	const seed = 1
	want, ok := r.FullDetailCycles[strconv.Itoa(seed)]
	if !ok {
		t.Fatalf("reference.json has no count for seed %d", seed)
	}
	got, err := measureFullDetail(seed)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("seed %d: full detail now takes %d cycles, reference.json (commit %s) records %d",
			seed, got, r.Commit, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]uint64, 1000)
	for i := range v {
		v[i] = uint64(i + 1)
	}
	for _, c := range []struct {
		p    int
		want uint64
	}{{50, 500}, {99, 990}, {100, 1000}, {1, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%d of 1..1000 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]uint64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %d, want 7", got)
	}
}

func TestBindRejectsDrift(t *testing.T) {
	declared := []specMetric{{Name: "a", Unit: "s"}, {Name: "b", Unit: "s"}}
	if _, err := bind(declared, map[string]float64{"a": 1, "b": 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := bind(declared, map[string]float64{"a": 1}); err == nil {
		t.Error("a declared metric that was not measured passed")
	}
	if _, err := bind(declared, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("a measured metric that is not declared passed")
	}
}

// testLog routes the benchmark's progress lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}
