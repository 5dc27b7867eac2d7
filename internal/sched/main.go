package sched

import (
	"fmt"
	"sort"

	"smarco/internal/cpu"
	"smarco/internal/sim"
	"smarco/internal/stats"
)

// MainScheduler sits on the main ring and distributes tasks received from
// the host across sub-rings so the whole chip stays load-balanced (§3.7).
// Flow control is credit-based: each sub-ring grants credits equal to twice
// its thread contexts; a completion returns one credit.
type MainScheduler struct {
	key  uint64
	subs []*SubScheduler

	pending []cpu.Work // sorted by ReleaseCycle
	credits []int
	creditP []*sim.Port[int]
	rr      int
	seq     uint64
	now     uint64 // last ticked cycle, for health reporting
	wake    func() // engine wake callback (see SetWake)

	Stats struct {
		Accepted   stats.Counter
		Dispatched stats.Counter
	}
}

// NewMain builds the main scheduler over the given sub-schedulers.
func NewMain(subs []*SubScheduler, key uint64) *MainScheduler {
	m := &MainScheduler{key: key, subs: subs}
	for i, s := range subs {
		p := sim.NewPort[int](0)
		s.SetCreditPort(p)
		m.creditP = append(m.creditP, p)
		m.credits = append(m.credits, 2*s.Capacity())
		_ = i
	}
	return m
}

// Ports returns the credit ports for engine registration.
func (m *MainScheduler) Ports() []interface{ Commit(uint64) } {
	out := make([]interface{ Commit(uint64) }, 0, len(m.creditP))
	for _, p := range m.creditP {
		out = append(out, p)
	}
	return out
}

// CreditPorts returns the typed credit ports so the chip can register them
// as cross-shard inputs (each is fed by a sub-scheduler in another shard),
// stamped with the credit latency class (chip.Config.CreditLatency) — on
// heterogeneous wirings this is usually the chip's tightest loop, and it
// alone bounds the scheduler shard's lookahead window (DESIGN.md §12).
func (m *MainScheduler) CreditPorts() []*sim.Port[int] { return m.creditP }

// SetWake implements sim.Wakeable: Submit can arrive while the scheduler is
// quiescent (nothing pending, all credits out), so it must re-arm itself.
func (m *MainScheduler) SetWake(f func()) { m.wake = f }

// Quiescent implements sim.Quiescer. Idle when no credits are arriving and
// either nothing is pending (wake on credit/Submit), the head task is not
// yet released (timed wake at its release cycle), or released work exists
// but every sub-ring is out of credits (a returning credit re-arms us via
// the credit ports).
func (m *MainScheduler) Quiescent(now uint64) (bool, uint64) {
	for _, p := range m.creditP {
		if !p.Empty() {
			return false, 0
		}
	}
	if len(m.pending) == 0 {
		return true, sim.WakeNever
	}
	if rel := m.pending[0].ReleaseCycle; rel > now {
		return true, rel
	}
	for _, c := range m.credits {
		if c > 0 {
			return false, 0
		}
	}
	return true, sim.WakeNever
}

// Submit queues tasks for execution. Tasks may carry future ReleaseCycles.
func (m *MainScheduler) Submit(work ...cpu.Work) {
	if m.wake != nil {
		m.wake()
	}
	m.pending = append(m.pending, work...)
	sort.SliceStable(m.pending, func(i, j int) bool {
		if m.pending[i].ReleaseCycle != m.pending[j].ReleaseCycle {
			return m.pending[i].ReleaseCycle < m.pending[j].ReleaseCycle
		}
		// Real-time tasks reach the sub-rings ahead of bulk work.
		return m.pending[i].Priority && !m.pending[j].Priority
	})
	m.Stats.Accepted.Add(uint64(len(work)))
}

// PendingLen returns tasks not yet handed to a sub-ring.
func (m *MainScheduler) PendingLen() int { return len(m.pending) }

// Commit implements sim.Ticker.
func (m *MainScheduler) Commit(uint64) {}

// Tick collects credits and pushes released tasks to the sub-ring with the
// most available credits.
func (m *MainScheduler) Tick(now uint64) {
	m.now = now
	for i, p := range m.creditP {
		for {
			_, ok := p.Pop()
			if !ok {
				break
			}
			m.credits[i]++
		}
	}
	const perCycle = 8
	for d := 0; d < perCycle; d++ {
		if len(m.pending) == 0 || m.pending[0].ReleaseCycle > now {
			return
		}
		// Choose the sub-ring with the most credits; round-robin on ties.
		best := -1
		for off := 0; off < len(m.subs); off++ {
			i := (m.rr + off) % len(m.subs)
			if m.credits[i] <= 0 {
				continue
			}
			if best < 0 || m.credits[i] > m.credits[best] {
				best = i
			}
		}
		if best < 0 {
			return
		}
		w := m.pending[0]
		m.pending = m.pending[1:]
		m.credits[best]--
		m.rr = (best + 1) % len(m.subs)
		m.seq++
		// The sub-scheduler lives in its sub-ring's shard: cross-shard send.
		m.subs[best].InPort().SendFrom(m.key, m.seq, now, w)
		m.Stats.Dispatched.Inc()
	}
}

// String names the scheduler for diagnostics.
func (m *MainScheduler) String() string { return "main-sched" }

// Progress implements sim.ProgressReporter.
func (m *MainScheduler) Progress() uint64 { return m.Stats.Dispatched.Value() }

// Health implements sim.HealthReporter. Tasks waiting on a future release
// cycle are idleness, not a stall, so they do not count.
func (m *MainScheduler) Health() string {
	releasable := 0
	for _, w := range m.pending {
		if w.ReleaseCycle > m.now {
			break // pending is sorted by release cycle
		}
		releasable++
	}
	if releasable == 0 {
		return ""
	}
	return fmt.Sprintf("%d released tasks undispatched (no credits)", releasable)
}
