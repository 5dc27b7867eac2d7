package sim

import (
	"runtime"
	"testing"
)

// TestAssignIsolatesHeavyShard: LPT assignment must put a shard that
// dominates the load estimate on its own partition.
func TestAssignIsolatesHeavyShard(t *testing.T) {
	e := NewEngine()
	// Before any cycle runs there are no tick counts, so the estimate
	// falls back to the component count: shard 0 is the heavy one.
	heavy := make([]Ticker, 100)
	for i := range heavy {
		heavy[i] = &counterTicker{}
	}
	e.AddShard("heavy", heavy...)
	for i := 0; i < 4; i++ {
		e.AddShard("", &counterTicker{})
	}
	e.SetMaxPartitions(2)
	if got := e.Partitions(); got != 2 {
		t.Fatalf("Partitions() = %d, want 2", got)
	}
	load := e.LoadReport()
	if len(load) != 5 {
		t.Fatalf("LoadReport has %d rows, want 5", len(load))
	}
	part := load[0].Partition
	for _, row := range load[1:] {
		if row.Partition == part {
			t.Fatalf("light shard %d shares partition %d with the heavy shard", row.Shard, part)
		}
	}
}

// TestLoadReportTickShares: tick shares are a probability distribution over
// shards and reflect who actually ran.
func TestLoadReportTickShares(t *testing.T) {
	e := NewEngine()
	e.AddShard("a", &counterTicker{})
	e.AddShard("b", &counterTicker{}, &counterTicker{})
	for i := 0; i < 10; i++ {
		e.Step()
	}
	load := e.LoadReport()
	var sum float64
	for _, row := range load {
		sum += row.TickShare
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("tick shares sum to %g, want 1", sum)
	}
	if load[0].Ticks != 10 || load[1].Ticks != 20 {
		t.Fatalf("ticks = %d/%d, want 10/20", load[0].Ticks, load[1].Ticks)
	}
	if load[0].Label != "a" || load[1].Label != "b" {
		t.Fatalf("labels = %q/%q", load[0].Label, load[1].Label)
	}
	if load[1].Components != 2 {
		t.Fatalf("shard b has %d components, want 2", load[1].Components)
	}
}

// TestPartitionCountBitIdentity: the same workload at every partition
// count produces identical component history.
func TestPartitionCountBitIdentity(t *testing.T) {
	run := func(parts int) []uint64 {
		e := NewEngine()
		c := &counterTicker{}
		r := &readerTicker{peer: c}
		e.AddShard("", r)
		e.AddShard("", c)
		e.AddShard("", &counterTicker{}, &counterTicker{})
		e.SetMaxPartitions(parts)
		for i := 0; i < 50; i++ {
			e.Step()
		}
		return r.observed
	}
	ref := run(1)
	for _, parts := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		got := run(parts)
		if len(got) != len(ref) {
			t.Fatalf("parts=%d: %d observations, want %d", parts, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("parts=%d: cycle %d observed %d, serial %d", parts, i, got[i], ref[i])
			}
		}
	}
}

// TestSetMaxPartitionsClamps: a new engine is serial (one partition), more
// partitions than shards collapses to the shard count, and zero means one
// per CPU.
func TestSetMaxPartitionsClamps(t *testing.T) {
	e := NewEngine()
	e.AddShard("", &counterTicker{})
	e.AddShard("", &counterTicker{})
	if got := e.Partitions(); got != 1 {
		t.Fatalf("default Partitions() = %d, want 1", got)
	}
	e.SetMaxPartitions(64)
	if got := e.Partitions(); got != 2 {
		t.Fatalf("Partitions() = %d, want 2 (clamped to shard count)", got)
	}
	e.SetMaxPartitions(0)
	want := runtime.GOMAXPROCS(0)
	if want > 2 {
		want = 2
	}
	if got := e.Partitions(); got != want {
		t.Fatalf("Partitions() = %d, want %d (one per CPU)", got, want)
	}
	e.SetMaxPartitions(1)
	if got := e.Partitions(); got != 1 {
		t.Fatalf("serial Partitions() = %d, want 1", got)
	}
}
