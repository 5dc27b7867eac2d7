package sim

import (
	"fmt"
	"strings"
	"testing"
)

// wedgedTicker makes progress for a while, then stops while still holding
// work — the signature of a wedged component.
type wedgedTicker struct {
	name       string
	work       uint64
	stopAfter  uint64
	pendingMsg string
}

func (w *wedgedTicker) Tick(now uint64) {
	if now < w.stopAfter {
		w.work++
	}
}
func (w *wedgedTicker) Commit(uint64)    {}
func (w *wedgedTicker) String() string   { return w.name }
func (w *wedgedTicker) Progress() uint64 { return w.work }
func (w *wedgedTicker) Health() string {
	if w.work > 0 {
		return w.pendingMsg
	}
	return ""
}

// idleTicker is quiescent: no progress, but also no pending work.
type idleTicker struct{}

func (idleTicker) Tick(uint64)      {}
func (idleTicker) Commit(uint64)    {}
func (idleTicker) Progress() uint64 { return 0 }
func (idleTicker) Health() string   { return "" }

func TestWatchdogFiresOnWedgedComponent(t *testing.T) {
	e := NewEngine()
	w := &wedgedTicker{name: "router3", stopAfter: 50, pendingMsg: "7 packets queued"}
	e.Add(w, idleTicker{})
	e.SetWatchdog(100)
	_, err := e.Run(10_000, nil)
	if err == nil {
		t.Fatal("expected watchdog error, run completed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "watchdog") {
		t.Fatalf("error is not a watchdog diagnostic: %v", err)
	}
	if !strings.Contains(msg, "router3") || !strings.Contains(msg, "7 packets queued") {
		t.Fatalf("watchdog did not name the stalled component: %v", err)
	}
}

func TestWatchdogQuietWhenIdle(t *testing.T) {
	// Zero progress with nothing pending is idleness, not a wedge: the run
	// should exhaust its budget, not trip the watchdog.
	e := NewEngine()
	e.Add(idleTicker{})
	e.SetWatchdog(100)
	_, err := e.Run(1_000, nil)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("want budget exhaustion, got %v", err)
	}
}

func TestWatchdogQuietWhileProgressing(t *testing.T) {
	e := NewEngine()
	w := &wedgedTicker{name: "busy", stopAfter: ^uint64(0), pendingMsg: "working"}
	e.Add(w)
	e.SetWatchdog(100)
	cycles, err := e.Run(2_000, func() bool { return w.work >= 1_500 })
	if err != nil {
		t.Fatalf("watchdog fired on a progressing component at cycle %d: %v", cycles, err)
	}
}

// panicTicker blows up at a chosen cycle.
type panicTicker struct {
	name string
	at   uint64
}

func (p *panicTicker) Tick(now uint64) {
	if now == p.at {
		panic("injected failure")
	}
}
func (p *panicTicker) Commit(uint64)  {}
func (p *panicTicker) String() string { return p.name }

// TestParallelPanicSurfacesAsError: at every partition count, on the Step
// path and inside a multi-cycle window, a component panic comes back from
// Run as an error naming the component, the panic value, and the cycle it
// panicked in; afterwards Step is inert.
func TestParallelPanicSurfacesAsError(t *testing.T) {
	for _, parts := range []int{1, 2} {
		for _, tc := range []struct {
			name   string
			build  func() *Engine
			stopAt uint64 // Run's returned cycle: the end of the faulting advance
		}{
			{"step", func() *Engine {
				e := NewEngine()
				e.SetMaxPartitions(parts)
				e.AddShard("", &panicTicker{name: "core7", at: 10})
				e.AddShard("", idleTicker{})
				return e
			}, 11},
			{"window", func() *Engine {
				e, _, _ := buildPingPong(4, 0, parts > 1)
				e.Add(&panicTicker{name: "core7", at: 10})
				return e
			}, 12},
		} {
			t.Run(fmt.Sprintf("parts=%d/%s", parts, tc.name), func(t *testing.T) {
				e := tc.build()
				cycles, err := e.Run(1_000, nil)
				if err == nil {
					t.Fatal("expected a panic-derived error")
				}
				for _, want := range []string{"core7", "injected failure", "at cycle 10:"} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("error lacks %q: %v", want, err)
					}
				}
				if cycles != tc.stopAt {
					t.Fatalf("run stopped at %d, want %d", cycles, tc.stopAt)
				}
				// Step must be inert after a recovered panic.
				before := e.Now()
				e.Step()
				if e.Now() != before {
					t.Fatal("Step advanced after a recovered panic")
				}
			})
		}
	}
}
