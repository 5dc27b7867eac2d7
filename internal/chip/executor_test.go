package chip

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"smarco/internal/fault"
	"smarco/internal/kernels"
	"smarco/internal/snapshot"
)

// normalizedSnapshot serializes a chip snapshot with the executor-dependent
// fields blanked: which executor ran and which partition each shard landed
// on are wall-time concerns, everything else (cycles, metrics, per-shard
// tick counts) must be bit-identical across executors.
func normalizedSnapshot(t *testing.T, c *Chip) []byte {
	t.Helper()
	s := c.Snapshot("identity", "kmp")
	s.Chip.Parallel = false
	s.Chip.Executor = ""
	for i := range s.Load {
		s.Load[i].Partition = 0
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestBuildRejectsUnknownExecutor: "serial" and "parallel" are the only
// executors; anything else, the retired "auto" included, fails Build.
func TestBuildRejectsUnknownExecutor(t *testing.T) {
	for _, name := range []string{"warp", "auto"} {
		bad := SmallConfig()
		bad.Executor = name
		if _, err := Build(bad, nil); err == nil {
			t.Fatalf("Build accepted unknown executor %q", name)
		}
	}
}

// TestExecutorBitIdentity is the partitioning-invariance contract: the
// serial executor, the parallel executor at its default and at a forced
// partition count, and a checkpoint restored into a differently-partitioned
// chip all produce the same cycle count and the same (normalized)
// snapshot — with and without fault injection.
func TestExecutorBitIdentity(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"parallel", func(c *Config) { c.Executor = "parallel" }},
		{"parallel-3parts", func(c *Config) { c.Executor = "parallel"; c.Partitions = 3 }},
	}
	for _, faulty := range []bool{false, true} {
		faulty := faulty
		t.Run(fmt.Sprintf("faults=%t", faulty), func(t *testing.T) {
			base := SmallConfig()
			base.Executor = "serial"
			if faulty {
				base.Fault = fault.Config{
					Seed:          42,
					LinkFaultRate: 0.001,
					DRAMFlipRate:  1e-4,
					KillCores:     1,
					KillCycle:     2_000,
				}
			}
			mk := func() *kernels.Workload {
				return kernels.MustNew("kmp", kernels.Config{Seed: 123, Tasks: 12})
			}

			// Serial reference.
			wRef := mk()
			ref := New(base, wRef.Mem)
			ref.Submit(wRef.Tasks)
			refCycles, err := ref.Run(10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := wRef.Check(); err != nil {
				t.Fatal(err)
			}
			refSnap := normalizedSnapshot(t, ref)

			for _, v := range variants {
				cfg := base
				v.mutate(&cfg)
				w := mk()
				c := New(cfg, w.Mem)
				c.Submit(w.Tasks)
				cycles, err := c.Run(10_000_000)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if err := w.Check(); err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if cycles != refCycles {
					t.Fatalf("%s: %d cycles, serial %d", v.name, cycles, refCycles)
				}
				if snap := normalizedSnapshot(t, c); !bytes.Equal(snap, refSnap) {
					t.Fatalf("%s: snapshot diverged from serial run:\n%s\nvs\n%s",
						v.name, snap, refSnap)
				}
			}

			// Checkpoint the serial run halfway and resume it in a chip
			// using the 3-partition parallel executor: the shard-level
			// snapshot format is executor-independent, so the resumed run
			// must land on the same final state.
			mid := refCycles / 2
			wInt := mk()
			intr := New(base, wInt.Mem)
			intr.Submit(wInt.Tasks)
			runToCycle(t, intr, mid)
			blob := intr.Checkpoint().Encode()

			resCfg := base
			resCfg.Executor = "parallel"
			resCfg.Partitions = 3
			wRes := mk()
			res := New(resCfg, wRes.Mem)
			res.Submit(wRes.Tasks)
			loaded, err := snapshot.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Restore(loaded); err != nil {
				t.Fatal(err)
			}
			resCycles, err := res.Run(10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := wRes.Check(); err != nil {
				t.Fatal(err)
			}
			if resCycles != refCycles {
				t.Fatalf("restored parallel-3parts run: %d cycles, serial %d", resCycles, refCycles)
			}
			if snap := normalizedSnapshot(t, res); !bytes.Equal(snap, refSnap) {
				t.Fatalf("restored parallel-3parts run: snapshot diverged from serial run")
			}
		})
	}
}
