package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"smarco/internal/chip"
	"smarco/internal/stats"
)

// chipCounters maps the simulated per-layer counters of one or more
// processors (two on the card) onto the benchmark's per-layer metric names.
// Counts are summed over processors; chip IPC is summed (the processors
// share one clock), per-core IPC, mean load latency and ring utilization are
// averaged, and the load-latency p95 is the worst processor's. Layers a
// workload does not use report 0.
func chipCounters(chips []*chip.Chip, ms []chip.Metrics) map[string]float64 {
	c := map[string]float64{}
	var ticks, cycles uint64
	var epochs, tasksDone uint64
	var collected, batches uint64
	n := float64(len(ms))
	for i, m := range ms {
		c["cpu.instructions"] += float64(m.Instructions)
		c["cpu.ipc"] += m.IPC
		c["cpu.ipc_per_core"] += m.IPCPerCore / n
		c["cpu.mem_ops"] += float64(m.MemOps)
		c["cpu.if_misses"] += float64(m.IFMisses)
		c["cpu.load_lat_mean"] += m.LoadLatMean / n
		c["cpu.load_lat_p95"] = max(c["cpu.load_lat_p95"], float64(m.LoadLatP95))
		c["spm.accesses"] += float64(m.SPMAccesses)
		c["spm.remote"] += float64(m.RemoteSPM)
		c["noc.packets_moved"] += float64(m.PacketsMoved)
		c["noc.subring_util"] += m.SubRingUtil / n
		c["noc.mainring_util"] += m.MainRingUtil / n
		c["mact.collected"] += float64(m.MACTCollected)
		c["mact.batches"] += float64(m.MACTBatches)
		c["mact.bypassed"] += float64(m.MACTBypassed)
		c["dram.requests"] += float64(m.MemRequests)
		c["dram.bus_bytes"] += float64(m.MemBusBytes)
		c["dram.row_hit_rate"] += m.RowHitRate / n
		collected += m.MACTCollected
		batches += m.MACTBatches
		tasksDone += m.TasksDone
		epochs += chips[i].Epochs()
		cycles += chips[i].Now()
		for _, l := range chips[i].LoadReport() {
			ticks += l.Ticks
		}
	}
	c["mact.coalesce"] = stats.Ratio(collected, batches)
	c["sched.tasks_done"] = float64(tasksDone)
	c["sim.epochs"] = float64(epochs)
	c["sim.component_ticks"] = float64(ticks)
	c["sim.ticks_per_cycle"] = stats.Ratio(ticks, cycles)
	for _, name := range []string{"card.submitted", "card.completed", "card.resubmits", "card.timeouts", "card.duplicates",
		"sampling.windows", "sampling.detailed_cycles", "sampling.detailed_frac", "sampling.ff_tasks",
		"sampling.ff_instructions", "sampling.ci_pct"} {
		c[name] = 0
	}
	return c
}

// profileSeconds sums the engine profiler's per-shard wall time over the
// processors: by phase (tick, port delivery, component commit) and by
// shard class (sub-ring, memory controller, main ring, scheduler).
func profileSeconds(chips []*chip.Chip) map[string]float64 {
	t := map[string]float64{
		"sim.tick_s": 0, "sim.port_s": 0, "sim.commit_s": 0,
		"sim.shard_sub_s": 0, "sim.shard_mc_s": 0, "sim.shard_mainring_s": 0, "sim.shard_sched_s": 0,
	}
	for _, c := range chips {
		p := c.Profile()
		if p == nil {
			continue
		}
		for _, row := range p.Partitions() {
			t["sim.tick_s"] += row.TickSeconds
			t["sim.port_s"] += row.PortSeconds
			t["sim.commit_s"] += row.CommitSeconds
			switch {
			case strings.HasPrefix(row.Label, "sub"):
				t["sim.shard_sub_s"] += row.TotalSeconds
			case strings.HasPrefix(row.Label, "mc"):
				t["sim.shard_mc_s"] += row.TotalSeconds
			case row.Label == "mainring":
				t["sim.shard_mainring_s"] += row.TotalSeconds
			case row.Label == "sched":
				t["sim.shard_sched_s"] += row.TotalSeconds
			}
		}
	}
	return t
}

// peakMemMB is the process's peak resident set (VmHWM).
func peakMemMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak memory: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak memory: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak memory: no VmHWM in /proc/self/status")
}
