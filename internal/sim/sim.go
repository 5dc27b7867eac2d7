// Package sim provides the deterministic cycle-level simulation kernel that
// every SmarCo component is built on.
//
// The engine advances a single global cycle counter. Each cycle has three
// phases: every active component's Tick is called (compute phase: read state
// that was committed at the end of the previous cycle, stage new outputs),
// dirty ports are committed (staged messages become visible in deterministic
// order), then every active component's Commit is called. Because Tick never
// observes another component's same-cycle writes, the order in which
// components are ticked does not affect results, which is what makes every
// partition count produce identical histories.
//
// Components may implement Quiescer to be skipped while idle: a quiescent
// component is removed from its shard's active list and re-armed by a
// port delivery (via the port's deliver callback) or by a self-declared
// wake-up cycle (a per-shard timer heap). The active list is kept in
// registration order, so skipping is invisible to the simulated history —
// see DESIGN.md for the protocol a component must follow to be skippable.
//
// Components are registered in shards: stable groups (one per sub-ring, one
// per memory controller, ...) that always execute together. Shards are the
// unit of load balancing: the engine packs them onto execution partitions
// using deterministic per-shard load estimates (accumulated component-tick
// counts, or component counts before any cycle has run). The assignment
// never touches architectural state: simulated histories are bit-identical
// at every partition count by construction. See DESIGN.md ("Load-balanced
// partitioning") for the contract.
//
// The engine has one executor, configured only by its partition count
// (SetMaxPartitions). It reproduces the conservative synchronous PDES
// scheme the paper's simulation framework uses: partitions tick
// concurrently, and a barrier at each phase boundary provides the
// one-cycle lookahead that makes the synchronization safe. Ports are
// committed by the partition that owns the receiving component's shard, so
// commit work parallelizes with the rest of the cycle. One partition, the
// default, is the serial case: everything runs on the calling goroutine.
// At every partition count a component panic is recovered and returned by
// Run as an error (see Err).
//
// Run has exactly two ways to advance. When every shard's safe window is
// one cycle it calls Step. Otherwise it advances one done-grid window at a
// time with advanceWindow: each shard fuses blocks of up to its own window
// (the minimum declared latency over its incoming cross-shard ports,
// clamped by SetLookahead), executed as min-clock rounds. Both paths
// produce bit-identical histories; see DESIGN.md §12.
package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBudget is wrapped by Run's error when the cycle budget ran out before
// the done condition held; test with errors.Is.
var ErrBudget = errors.New("cycle budget exhausted")

// ErrStalled is wrapped by Run's error when the progress watchdog detected
// a wedged simulation; test with errors.Is.
var ErrStalled = errors.New("no progress (wedged)")

// Ticker is implemented by every simulated component.
//
// Tick runs in the compute phase of a cycle: it may read any state committed
// in earlier cycles and may stage outputs (typically via Port.Send), but it
// must not make state visible to other components. Commit runs in the commit
// phase and publishes the staged state.
type Ticker interface {
	Tick(now uint64)
	Commit(now uint64)
}

// WakeNever means a quiescent component has no self-scheduled wake-up: only
// a port delivery (or an explicit wake) re-arms it.
const WakeNever = ^uint64(0)

// Quiescer is optionally implemented by components that can be skipped while
// idle. The engine calls Quiescent after the component's Commit; returning
// idle=true promises that, absent new port deliveries, every future Tick
// before wakeAt would be a no-op (no state change, no sends, no stats).
// wakeAt is the first cycle the component must tick again on its own
// (WakeNever when only deliveries matter); wakeAt <= now keeps it awake.
//
// The contract a quiescent component accepts: it is NOT ticked again until
// one of its registered input ports (see Engine.AddPortFor) delivers a
// message, its wakeAt cycle arrives, or another component wakes it through
// the Wakeable callback. Reporting idle while holding undelivered input or
// internal work silently freezes that work.
type Quiescer interface {
	Quiescent(now uint64) (idle bool, wakeAt uint64)
}

// CatchUpper is optionally implemented by components that account per-cycle
// statistics (cycle counts, occupancy integrals). Engine.Settle calls
// CatchUp so a component that slept through the tail of a run can pad its
// counters up to the current cycle before metrics are read.
type CatchUpper interface {
	CatchUp(now uint64)
}

// Wakeable is optionally implemented by components that can be mutated
// outside the port system (e.g. a scheduler hard-killing a core). The
// engine installs a wake callback at registration; the component must
// invoke it whenever such a mutation gives it new work, or the engine may
// never tick it again.
type Wakeable interface {
	SetWake(func())
}

// ProgressReporter is optionally implemented by components that perform
// observable work. The engine's watchdog sums Progress across all reporters;
// an interval with no change anywhere, while some component still holds
// pending work, means the simulation is wedged.
type ProgressReporter interface {
	// Progress returns a monotonically non-decreasing work counter.
	Progress() uint64
}

// HealthReporter is optionally implemented by components that can describe
// what they are waiting on. Health returns "" when the component is
// quiescent (nothing pending — a legitimate idle), or a short diagnostic
// ("4 queued, 0 free contexts") when it holds unfinished work.
type HealthReporter interface {
	Health() string
}

// DefaultWatchdogCycles is the default zero-progress observation interval.
// The watchdog needs two consecutive stuck intervals to fire, so the
// effective detection latency is twice this.
const DefaultWatchdogCycles = 10_000

// committer is the commit half of Ticker, implemented by Port so the engine
// can flush staged messages between the two phases.
type committer interface {
	Commit(now uint64)
}

// deliverNotifier is implemented by Port: the engine installs a callback so
// a delivery re-arms the quiesced owner. The callback receives the first
// cycle the delivered messages are visible to the consumer.
type deliverNotifier interface {
	SetOnDeliver(func(visibleAt uint64))
}

// CrossPort is the engine-facing interface of a cross-shard port: a *Port
// registered with AddCrossPortFor. Cross-shard ports declare a minimum
// delivery latency and buffer sends across synchronizations (Seal), releasing
// each message on the exact cycle its timestamp dictates (ReleaseDue) — the
// mechanism behind conservative multi-cycle lookahead. The unexported
// method restricts implementations to this package's Port.
type CrossPort interface {
	Seal(now uint64)
	ReleaseDue(nextTick uint64)
	NextDue() uint64
	MinLatency() uint64
	SetOnDirty(func())
	SetOnDeliver(func(visibleAt uint64))
	markCross()
}

// dirtyNotifier is implemented by Port: the engine installs a callback fired
// on the clean→dirty transition (the first Send of a cycle), which enqueues
// the port on its owning shard's commit list. The port-commit phase then
// visits only ports that were actually sent to. Every registered port must
// implement it (registerPort panics otherwise).
type dirtyNotifier interface {
	SetOnDirty(func())
}

// compState tracks one registered component. woken is written by port
// deliver callbacks (any partition's goroutine, port-commit phase) and read
// by the owning shard's wake scan (tick phase); the phase barrier orders
// the two, the atomic keeps the race detector satisfied.
type compState struct {
	t      Ticker
	q      Quiescer
	asleep bool
	woken  atomic.Bool
	sh     *shard // owning shard; never changes after registration
	si     int32  // index within the shard
}

// shard is a stable group of components that always execute together: the
// atomic unit of load balancing. A shard's identity (id, label, component
// membership, port ownership) is fixed at registration; only its execution
// partition changes, and only at cycle barriers.
type shard struct {
	id     int
	label  string
	comps  []*compState
	active []int32 // indices into comps, ascending (registration order)
	timers timerHeap
	// dirtyPorts queues the registered ports sent to since the last port
	// phase (self-enqueued via their onDirty hook), so clean ports cost
	// nothing per cycle.
	dirtyMu    sync.Mutex
	dirtyPorts []committer
	spareDirty []committer // double buffer reused by portPhase
	asleep     int         // number of comps with asleep set
	// cur is the component under execution and curAt the cycle it is
	// executing, both for panic diagnostics.
	cur   Ticker
	curAt uint64

	// crossIn holds the cross-shard ports owned by this shard's components.
	// The shard releases their due deliveries each port phase (sealed
	// entries from earlier rounds whose cycle has arrived); the engine
	// seals freshly staged entries at the end of every round and barrier.
	crossIn []CrossPort

	// wokenList queues components marked woken since the last tick phase,
	// replacing a per-cycle scan of every component. Appended under wokenMu
	// from wherever a wake fires (port deliveries on the owning goroutine,
	// barrier releases on the coordinator, Wakeable callbacks from
	// anywhere); entries are deduplicated by the woken CAS and may be stale
	// by drain time (the drain re-checks asleep and the flag).
	wokenMu   sync.Mutex
	wokenList []int32
	spareWoke []int32 // double buffer reused by the drain

	// Deterministic load estimate: ticks accumulates the number of
	// component Ticks this shard has executed (a pure function of the
	// simulated history, identical at every partition count).
	ticks uint64

	// win is the shard's effective fused-block window for the current Run
	// (shardWindows) and clock its position within the window being
	// advanced; both are executor state, never checkpointed. blocks counts
	// the fused multi-cycle blocks this shard has executed — a wall-time
	// diagnostic like Epochs, never part of the simulated history.
	win    uint64
	clock  uint64
	blocks uint64

	// Current execution assignment. Written only between runs (ensureParts,
	// with no worker started), read during phases.
	part *partition

	// Observability (nil when disabled). tr/prof mirror the engine's
	// installed trace/profiler so the phase methods need no engine pointer.
	tr   *Trace
	prof *Profile
}

// markDirty enqueues a port for commit at this shard's next port phase.
// Called from any goroutine that may Send (phase barriers keep it out of
// portPhase itself).
func (sh *shard) markDirty(pt committer) {
	sh.dirtyMu.Lock()
	sh.dirtyPorts = append(sh.dirtyPorts, pt)
	sh.dirtyMu.Unlock()
}

// markWoken flags a component for wake-up at the shard's next tick phase.
// The CAS on the woken flag bounds the queue: a component already marked is
// not appended again, and the flag is cleared when the component wakes or
// (stale marks) when it quiesces with all deliveries visible.
func (sh *shard) markWoken(cs *compState) {
	if cs.woken.CompareAndSwap(false, true) {
		sh.wokenMu.Lock()
		sh.wokenList = append(sh.wokenList, cs.si)
		sh.wokenMu.Unlock()
	}
}

// partition is one unit of parallelism: the set of shards executed by one
// goroutine (a persistent worker inside Run, or the caller's goroutine).
type partition struct {
	pi     int
	shards []*shard
}

// Engine drives a set of components cycle by cycle.
type Engine struct {
	comps  []*compState // flat, registration order (shard by shard)
	shards []*shard
	parts  []*partition // execution units; rebuilt by ensureParts
	owners map[Ticker]*compState
	now    uint64

	// Executor configuration: the cap on execution partitions (1 = serial,
	// 0 = GOMAXPROCS).
	maxParts int

	// Watchdog state. stuckSince is the first cycle of the current
	// zero-progress streak (0 = not stuck): counting in simulated cycles
	// instead of check intervals keeps the firing cycle independent of the
	// epoch length.
	watchEvery uint64
	reporters  []ProgressReporter
	lastSum    uint64
	lastCheck  uint64
	stuckSince uint64

	// Conservative lookahead state. crossPorts lists every registered
	// cross-shard port; dirtyCross queues the ones sent to since the last
	// barrier (self-enqueued via their onDirty hook) for sealing.
	// lookahead is the configured window cap (0 = auto); epochs counts
	// completed multi-cycle windows for observability. roundClock/roundEnd
	// publish the current min-clock round to the phase workers (written by
	// the coordinator before dispatch, read by workers after their channel
	// receive).
	crossPorts []CrossPort
	sinkPorts  []committer
	crossMu    sync.Mutex
	dirtyCross []CrossPort
	spareCross []CrossPort
	lookahead  uint64
	epochs     uint64
	roundClock uint64
	roundEnd   uint64

	// Panics recovered from partition phases. errCount mirrors
	// len(errs) so the per-cycle Err poll is one atomic load.
	errMu    sync.Mutex
	errs     []partitionErr
	errCount atomic.Int32

	// Persistent phase workers (several partitions inside Run). One buffered
	// channel per partition plus a single completion channel replaces the
	// per-phase goroutine spawn + WaitGroup of the old executor.
	workCh    []chan uint8
	doneCh    chan struct{}
	pending   atomic.Int32
	workersOn bool

	// Observability hooks; both nil unless installed (SetTrace/SetProfile).
	trace *Trace
	prof  *Profile
}

// TraceFn records a component-domain trace event (category, name, cycle).
// Components hold one as a nil-checked field so emitting costs nothing
// until a trace is wired in; see Trace.Emit.
type TraceFn func(cat, name string, cycle uint64)

// partitionErr records a panic recovered in one partition phase: the
// component that panicked and the cycle it was executing.
type partitionErr struct {
	partition int
	component Ticker
	cycle     uint64
	value     any
}

// NewEngine returns an empty engine with one execution partition (serial).
func NewEngine() *Engine { return &Engine{owners: map[Ticker]*compState{}, maxParts: 1} }

// SetMaxPartitions sets the number of execution partitions: 1 (the
// default) runs everything on the calling goroutine, 0 means one per CPU
// (GOMAXPROCS at assignment time), and the count never exceeds the shard
// count. Execution partitioning is a wall-time concern only; simulated
// results are identical for every value.
func (e *Engine) SetMaxPartitions(n int) {
	if e.maxParts != n {
		e.maxParts = n
		e.invalidateParts()
	}
}

// AddShard registers a named group of components that always execute
// together — the atomic unit of load balancing — and returns its shard id.
// Components that communicate combinationally (within the same cycle) must
// share a shard only if they also share staged state; port-based
// communication is always safe across shards.
func (e *Engine) AddShard(label string, components ...Ticker) int {
	sh := &shard{id: len(e.shards), label: label}
	if sh.label == "" {
		sh.label = fmt.Sprintf("shard%d", sh.id)
	}
	e.shards = append(e.shards, sh)
	e.invalidateParts()
	e.addToShard(sh, components...)
	return sh.id
}

// Add registers components into the default (first) shard.
func (e *Engine) Add(components ...Ticker) {
	if len(e.shards) == 0 {
		e.AddShard("")
	}
	e.addToShard(e.shards[0], components...)
}

func (e *Engine) addToShard(sh *shard, components ...Ticker) {
	for _, t := range components {
		cs := &compState{t: t, sh: sh, si: int32(len(sh.comps))}
		cs.q, _ = t.(Quiescer)
		sh.comps = append(sh.comps, cs)
		sh.active = append(sh.active, cs.si)
		e.comps = append(e.comps, cs)
		if comparableTicker(t) {
			e.owners[t] = cs
		}
		if w, ok := t.(Wakeable); ok {
			w.SetWake(func() { sh.markWoken(cs) })
		}
		if pr, ok := t.(ProgressReporter); ok {
			e.reporters = append(e.reporters, pr)
		}
	}
}

// comparableTicker guards the owner map against dynamic types that would
// panic as map keys (components are normally pointers, which are fine).
func comparableTicker(t Ticker) bool {
	return t != nil && reflect.TypeOf(t).Comparable()
}

// AddPort registers a port with no owning component: it is flushed between
// the tick and commit phases but delivers no wake-up. Use AddPortFor for
// ports feeding a component that quiesces.
func (e *Engine) AddPort(p committer) {
	if len(e.shards) == 0 {
		e.AddShard("")
	}
	registerPort(e.shards[0], p)
}

// registerPort wires p for commit by sh through the dirty-queue hook. A
// committer without SetOnDirty would never be committed, so registering
// one is a wiring error.
func registerPort(sh *shard, p committer) {
	dn, ok := p.(dirtyNotifier)
	if !ok {
		panic(fmt.Sprintf("sim: port %T lacks SetOnDirty; register *sim.Port values", p))
	}
	dn.SetOnDirty(func() { sh.markDirty(p) })
}

// AddPortFor registers input ports of owner: they are committed by the
// owner's shard (parallelizing commit work) and a delivery on any of them
// re-arms the owner if it has quiesced. Falls back to unowned registration
// when owner was never registered. The parameter type is the anonymous form
// of committer so component Ports() slices pass through.
func (e *Engine) AddPortFor(owner Ticker, ports ...interface{ Commit(now uint64) }) {
	var cs *compState
	if comparableTicker(owner) {
		cs = e.owners[owner]
	}
	if cs == nil {
		for _, p := range ports {
			e.AddPort(p)
		}
		return
	}
	sh, si := cs.sh, cs.si
	for _, p := range ports {
		if dn, ok := p.(deliverNotifier); ok {
			// The callback fires from Port.Commit during the owning shard's
			// port phase (or from a barrier release on the coordinator, with
			// workers idle), so the trace write below lands in that shard's
			// buffer without extra synchronization.
			dn.SetOnDeliver(func(visibleAt uint64) {
				sh.markWoken(cs)
				if t := e.trace; t != nil {
					t.deliver(sh.id, si, visibleAt)
				}
			})
		}
		registerPort(sh, p)
	}
}

// AddCrossPortFor registers input ports of owner whose producers live in a
// different shard. A cross-shard port must declare its link's minimum
// delivery latency (Port.SetMinLatency) and be sent to with SendFrom; the
// owner shard's safe window (conservative lookahead) is the minimum
// declared latency over its incoming cross-shard ports. Deliveries are
// sealed when a round or barrier ends and released on the exact cycle
// their timestamp dictates, so the simulated history is bit-identical to
// single-cycle execution.
// Unlike AddPortFor, the owner must be a registered component.
func (e *Engine) AddCrossPortFor(owner Ticker, ports ...CrossPort) {
	var cs *compState
	if comparableTicker(owner) {
		cs = e.owners[owner]
	}
	if cs == nil {
		panic("sim: AddCrossPortFor owner is not a registered component")
	}
	sh, si := cs.sh, cs.si
	for _, p := range ports {
		p.markCross()
		cp := p
		cp.SetOnDirty(func() { e.markCrossDirty(cp) })
		cp.SetOnDeliver(func(visibleAt uint64) {
			sh.markWoken(cs)
			if t := e.trace; t != nil {
				t.deliver(sh.id, si, visibleAt)
			}
		})
		sh.crossIn = append(sh.crossIn, cp)
		e.crossPorts = append(e.crossPorts, cp)
	}
}

// markCrossDirty queues a cross-shard port for sealing at the end of the
// current round or barrier. Fired at most once per port per seal (the
// port's dirty CAS).
func (e *Engine) markCrossDirty(p CrossPort) {
	e.crossMu.Lock()
	e.dirtyCross = append(e.dirtyCross, p)
	e.crossMu.Unlock()
}

// AddSinkPort registers a port consumed outside the simulated component
// graph (a host-side collector). Sink ports are committed at barriers
// only, so with multi-cycle windows the host observes deliveries
// quantized to barriers — harness code that reads them between Run calls
// sees the same history either way.
func (e *Engine) AddSinkPort(p committer) {
	e.sinkPorts = append(e.sinkPorts, p)
}

// SetLookahead caps every shard's fused-block window: the number of cycles
// a shard runs between synchronizations. 0 (the default) leaves each shard
// at its wiring-derived safe window; explicit values can only lower it (1
// restores classic cycle-by-cycle execution). Results are bit-identical
// for every setting.
func (e *Engine) SetLookahead(n uint64) { e.lookahead = n }

// autoLookahead returns the engine-wide minimum declared delivery latency
// over all cross-shard ports (1 when none are registered). On
// uniform-latency wirings it coincides with the done grid (doneGrid) and
// every shard window; heterogeneous wirings split the two.
func (e *Engine) autoLookahead() uint64 {
	la := uint64(1)
	for i, cp := range e.crossPorts {
		if lat := cp.MinLatency(); i == 0 || lat < la {
			la = lat
		}
	}
	return la
}

// Lookahead returns the engine-wide minimum window: the narrowest shard
// window under the current wiring and SetLookahead cap.
func (e *Engine) Lookahead() uint64 {
	la := e.autoLookahead()
	if e.lookahead > 0 && e.lookahead < la {
		la = e.lookahead
	}
	return la
}

// Epochs returns the number of completed multi-cycle windows (advances of
// a single cycle take the Step path and are not counted). The per-shard
// block counts are in WindowReport.
func (e *Engine) Epochs() uint64 { return e.epochs }

// shardBaseWindow is the shard's wiring-determined safe block length: the
// minimum declared delivery latency over its incoming cross-shard ports,
// or 0 when it has none (such a shard receives no cross-shard input and
// is bounded only by the done grid).
func shardBaseWindow(sh *shard) uint64 {
	var w uint64
	for i, cp := range sh.crossIn {
		if lat := cp.MinLatency(); i == 0 || lat < w {
			w = lat
		}
	}
	return w
}

// doneGrid returns the pitch of the absolute cycle grid on which Run
// evaluates the done condition and the watchdog: the maximum per-shard
// base window (1 when no cross ports are registered). Like autoLookahead
// it is a pure function of the wiring — independent of SetLookahead and
// of the executor — so stop cycles are identical across every executor
// setting; on uniform-latency wirings it equals autoLookahead, preserving
// the historical grid. It is also the window pitch of advanceWindow: all
// shard clocks realign at grid multiples.
func (e *Engine) doneGrid() uint64 {
	g := uint64(1)
	for _, sh := range e.shards {
		if w := shardBaseWindow(sh); w > g {
			g = w
		}
	}
	return g
}

// shardWindows sets each shard's effective fused-block window — the base
// window clamped by the SetLookahead override, shards without cross inputs
// bounded by the grid — and returns the largest. Run steps cycle by cycle
// exactly when that is 1.
func (e *Engine) shardWindows(grid uint64) (maxWin uint64) {
	maxWin = 1
	for _, sh := range e.shards {
		w := shardBaseWindow(sh)
		if w == 0 || w > grid {
			w = grid
		}
		if e.lookahead > 0 && e.lookahead < w {
			w = e.lookahead
		}
		sh.win = w
		maxWin = max(maxWin, w)
	}
	return maxWin
}

// ShardWindow describes one shard's fused-block window: Window is the
// safe block length the shard may run between synchronizations (min
// incoming cross-port latency, clamped by SetLookahead and the done
// grid), and Blocks counts the fused blocks it has executed — a
// wall-time diagnostic, 0 under classic cycle-by-cycle execution.
type ShardWindow struct {
	Shard  int    `json:"shard"`
	Label  string `json:"label"`
	Window uint64 `json:"window"`
	Blocks uint64 `json:"blocks,omitempty"`
}

// WindowReport returns the per-shard window picture under the current
// wiring and SetLookahead setting, in shard-id order. Windows are pure
// functions of the wiring and the cap; Blocks depend on how the runs were
// sliced into windows.
func (e *Engine) WindowReport() []ShardWindow {
	e.shardWindows(e.doneGrid())
	out := make([]ShardWindow, len(e.shards))
	for i, sh := range e.shards {
		out[i] = ShardWindow{Shard: sh.id, Label: sh.label, Window: sh.win, Blocks: sh.blocks}
	}
	return out
}

// SetWatchdog sets the zero-progress observation interval in cycles
// (0 disables the watchdog). The watchdog is evaluated inside Run: when the
// summed component progress does not change over two consecutive intervals
// while at least one component reports pending work, Run returns a
// diagnostic error naming the stalled components instead of silently
// burning the remaining cycle budget.
func (e *Engine) SetWatchdog(cycles uint64) { e.watchEvery = cycles }

// Now returns the current cycle number (the number of completed cycles).
func (e *Engine) Now() uint64 { return e.now }

// invalidateParts drops the current shard→partition assignment so the next
// Step/Run recomputes it. Never called while workers are running: all the
// mutating entry points (registration, executor configuration) happen
// between runs.
func (e *Engine) invalidateParts() {
	e.stopWorkers()
	e.parts = nil
	for _, sh := range e.shards {
		sh.part = nil
	}
}

// Partitions returns the number of execution partitions the current
// assignment uses.
func (e *Engine) Partitions() int {
	e.ensureParts()
	return len(e.parts)
}

// ensureParts builds the execution partitions and the shard assignment if
// they are missing: min(cap, shard count) partitions, where a cap of 0
// means GOMAXPROCS, so by default a single-CPU host never pays for
// partitions it cannot run concurrently.
func (e *Engine) ensureParts() {
	if e.parts != nil {
		return
	}
	n := e.maxParts
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = max(1, min(n, len(e.shards)))
	e.parts = make([]*partition, n)
	for i := range e.parts {
		e.parts[i] = &partition{pi: i}
	}
	e.assign()
}

// loadEstimate is the deterministic per-shard load input to assignment:
// the accumulated tick count, falling back to the component count before
// any cycles have run. Always at least 1 so empty shards still get
// assigned.
func (sh *shard) loadEstimate() uint64 {
	if sh.ticks > 0 {
		return sh.ticks
	}
	if n := uint64(len(sh.comps)); n > 0 {
		return n
	}
	return 1
}

// assign distributes shards over the current partitions with the classic
// LPT (longest processing time first) greedy heuristic: shards in
// descending load order, each placed on the least-loaded partition. All
// inputs and tie-breaks are deterministic (load estimates are pure
// functions of the simulated history; ties break on shard id, then on
// partition index), so the same run always produces the same assignment.
func (e *Engine) assign() {
	order := make([]*shard, len(e.shards))
	copy(order, e.shards)
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].loadEstimate() > order[j].loadEstimate()
	})
	loads := make([]uint64, len(e.parts))
	for _, p := range e.parts {
		p.shards = p.shards[:0]
	}
	for _, sh := range order {
		best := 0
		for pi := 1; pi < len(loads); pi++ {
			if loads[pi] < loads[best] {
				best = pi
			}
		}
		loads[best] += sh.loadEstimate()
		p := e.parts[best]
		p.shards = append(p.shards, sh)
		sh.part = p
	}
	// Execute shards within a partition in id order: not required for
	// correctness (the two-phase protocol makes tick order irrelevant), but
	// it keeps serial iteration and diagnostics stable.
	for _, p := range e.parts {
		sort.Slice(p.shards, func(i, j int) bool { return p.shards[i].id < p.shards[j].id })
	}
}

// Step advances the simulation by exactly one cycle, on the persistent
// workers when Run started them and inline otherwise. After a component
// panic has been recovered (see Err), Step is a no-op: the faulting
// partition's state is no longer trustworthy.
func (e *Engine) Step() {
	if e.errCount.Load() > 0 {
		return
	}
	e.ensureParts()
	if e.workersOn {
		e.stepWorkers()
	} else {
		e.stepInline()
	}
	if e.prof != nil {
		e.prof.steps++
	}
	e.now++
	e.barrier()
}

// barrier closes a Step or a window: freshly staged cross-shard sends are
// sealed into their ports' future lists, entries due at the next cycle are
// released, and sink ports are committed. e.now is the next cycle to
// execute. A send at cycle u arrived with at = u + lat >= window end, so
// sealing cannot race the window's own mid-cycle releases; the release
// here covers exactly the envelopes that fall due immediately (the classic
// next-cycle delivery under Step).
func (e *Engine) barrier() {
	if len(e.crossPorts) == 0 && len(e.sinkPorts) == 0 {
		return
	}
	e.sealCross()
	for _, cp := range e.crossPorts {
		if cp.NextDue() <= e.now {
			cp.ReleaseDue(e.now)
		}
	}
	for _, pt := range e.sinkPorts {
		pt.Commit(e.now)
	}
}

// sealCross merges every cross-shard port's freshly staged sends into its
// future list (the Seal is ordered by (release,key,seq), so the merge is
// independent of the drain order here). Called with all phase work idle:
// at barriers, and at the end of every min-clock round.
func (e *Engine) sealCross() {
	e.crossMu.Lock()
	dirty := e.dirtyCross
	e.dirtyCross = e.spareCross[:0]
	e.crossMu.Unlock()
	for i, cp := range dirty {
		cp.Seal(e.now)
		dirty[i] = nil
	}
	e.spareCross = dirty[:0]
}

// advanceWindow runs the next n >= 2 cycles with per-shard fused blocks:
// the window is executed as a sequence of min-clock rounds. Each round
// picks the minimum per-shard clock m; every shard whose clock is m runs
// one fused block of min(its window, window end - m) cycles — releasing
// deliveries due at the block's first cycle, then tick/port/commit per
// cycle — and the round ends by sealing freshly staged cross-shard sends
// while all phase work is idle. Safe because a shard runnable at the
// global minimum clock m has every producer at clock >= m, so anything it
// could receive before m + window was sent at least one full link latency
// earlier and is already sealed; and no in-flight send can be due before
// its consumer's clock (latency >= the consumer's window). When every
// shard's window covers n — any uniform wiring at auto lookahead — the
// window is a single round. All clocks meet at the window end, so between
// windows the engine state is indistinguishable from cycle-by-cycle
// execution — checkpoints need no extra state — and the closing barrier
// releases due deliveries and commits sinks exactly like Step's.
func (e *Engine) advanceWindow(n uint64) {
	if e.errCount.Load() > 0 {
		return
	}
	e.ensureParts()
	end := e.now + n
	for _, sh := range e.shards {
		sh.clock = e.now
	}
	for {
		m := end
		for _, sh := range e.shards {
			m = min(m, sh.clock)
		}
		if m >= end {
			break
		}
		e.roundClock, e.roundEnd = m, end
		if e.workersOn {
			e.pending.Store(int32(len(e.parts)))
			for _, ch := range e.workCh {
				ch <- opRound
			}
			<-e.doneCh
		} else {
			for pi := range e.parts {
				e.runRoundPart(pi)
			}
		}
		if e.errCount.Load() > 0 {
			break
		}
		e.sealCross()
	}
	if e.prof != nil {
		e.prof.steps += n
	}
	e.now = end
	e.epochs++
	e.barrier()
}

// runRound runs the partition's share of the min-clock round at m: every
// owned shard whose clock is m runs one fused block, clipped to the window
// end. Each shard's clock lives on its own struct, so partitions write
// disjoint memory.
func (p *partition) runRound(m, end uint64) {
	for _, sh := range p.shards {
		if sh.clock != m {
			continue
		}
		n := min(sh.win, end-m)
		runShardBlock(sh, m, n)
		sh.clock = m + n
	}
}

// runRoundPart executes one partition's share of a min-clock round under
// panic recovery; the round bounds were published before dispatch.
func (e *Engine) runRoundPart(pi int) {
	p := e.parts[pi]
	defer e.recoverPartition(pi, p)
	p.runRound(e.roundClock, e.roundEnd)
}

// runShardBlock runs one shard's fused block of n cycles starting at
// start: deliveries already due are released first (sealed entries from
// earlier rounds whose cycle has arrived — later cycles release mid-block
// in portPhase), then the three phases run cycle by cycle, shard-major for
// cache locality.
func runShardBlock(sh *shard, start, n uint64) {
	for _, cp := range sh.crossIn {
		if cp.NextDue() <= start {
			cp.ReleaseDue(start)
		}
	}
	for t, end := start, start+n; t < end; t++ {
		sh.tickPhase(t)
		sh.portPhase(t)
		sh.commitPhase(t)
	}
	sh.blocks++
}

func (p *partition) tickPhase(now uint64) {
	for _, sh := range p.shards {
		sh.tickPhase(now)
	}
}

func (p *partition) portPhase(now uint64) {
	for _, sh := range p.shards {
		sh.portPhase(now)
	}
}

func (p *partition) commitPhase(now uint64) {
	for _, sh := range p.shards {
		sh.commitPhase(now)
	}
}

// tickPhase wakes due and delivered-to components, then ticks the active
// list in registration order.
func (sh *shard) tickPhase(now uint64) {
	var t0 time.Time
	if sh.prof != nil {
		t0 = time.Now()
	}
	woke := false
	for len(sh.timers) > 0 && sh.timers[0].at <= now {
		idx := sh.timers.pop()
		cs := sh.comps[idx]
		if cs.asleep {
			cs.asleep = false
			cs.woken.Store(false)
			sh.asleep--
			sh.active = append(sh.active, idx)
			woke = true
			if sh.tr != nil {
				sh.tr.wake(sh.id, idx, now, true)
			}
		}
	}
	if len(sh.wokenList) > 0 {
		// Reading len without the mutex is safe: everything that appends is
		// ordered before this tick phase (port deliveries and barrier
		// releases by the phase barriers, Wakeable callbacks by their own
		// phase), so a racing append that could be missed here cannot exist
		// when the simulation is deterministic. Entries may be stale —
		// the component woke or quiesced since — hence the re-check.
		sh.wokenMu.Lock()
		marked := sh.wokenList
		sh.wokenList = sh.spareWoke[:0]
		sh.wokenMu.Unlock()
		for _, idx := range marked {
			cs := sh.comps[idx]
			if cs.asleep && cs.woken.Load() {
				cs.asleep = false
				cs.woken.Store(false)
				sh.asleep--
				sh.active = append(sh.active, idx)
				woke = true
				if sh.tr != nil {
					sh.tr.wake(sh.id, idx, now, false)
				}
			}
		}
		sh.spareWoke = marked[:0]
	}
	if woke {
		sortActive(sh.active)
	}
	sh.curAt = now
	for _, idx := range sh.active {
		cs := sh.comps[idx]
		sh.cur = cs.t
		cs.t.Tick(now)
	}
	sh.cur = nil
	// The deterministic load estimate: one Tick per active component this
	// cycle. Identical across executors because the active list is a pure
	// function of the simulated history.
	sh.ticks += uint64(len(sh.active))
	if sh.prof != nil {
		sh.prof.add(sh.id, 0, time.Since(t0))
	}
}

// portPhase commits the ports that were sent to since the last port phase
// (self-enqueued via markDirty).
func (sh *shard) portPhase(now uint64) {
	var t0 time.Time
	if sh.prof != nil {
		t0 = time.Now()
	}
	sh.dirtyMu.Lock()
	dirty := sh.dirtyPorts
	sh.dirtyPorts = sh.spareDirty[:0]
	sh.dirtyMu.Unlock()
	for i, pt := range dirty {
		pt.Commit(now)
		dirty[i] = nil
	}
	sh.spareDirty = dirty[:0]
	// Release cross-shard deliveries falling due mid-block: envelopes
	// sealed at earlier rounds whose cycle has arrived. NextDue is a
	// cached field, so idle cross ports cost one load.
	for _, cp := range sh.crossIn {
		if cp.NextDue() <= now+1 {
			cp.ReleaseDue(now + 1)
		}
	}
	if sh.prof != nil {
		sh.prof.add(sh.id, 1, time.Since(t0))
	}
}

// commitPhase commits active components, then lets each declare itself
// quiescent. The quiesce check runs after the port phase, so a component
// that just received a message sees the non-empty input and stays awake.
func (sh *shard) commitPhase(now uint64) {
	var t0 time.Time
	if sh.prof != nil {
		t0 = time.Now()
	}
	sh.curAt = now
	for _, idx := range sh.active {
		cs := sh.comps[idx]
		sh.cur = cs.t
		cs.t.Commit(now)
	}
	sh.cur = nil
	keep := sh.active[:0]
	for _, idx := range sh.active {
		cs := sh.comps[idx]
		if cs.q != nil {
			sh.cur = cs.t
			if idle, wakeAt := cs.q.Quiescent(now); idle && wakeAt > now {
				// Deliveries up to this cycle are already visible, so any
				// prior wake mark is stale: clear it alongside.
				cs.woken.Store(false)
				cs.asleep = true
				sh.asleep++
				if wakeAt != WakeNever {
					sh.timers.push(timerEntry{at: wakeAt, idx: idx})
				}
				if sh.tr != nil {
					sh.tr.sleep(sh.id, idx, now+1)
				}
				continue
			}
		}
		keep = append(keep, idx)
	}
	sh.cur = nil
	sh.active = keep
	if sh.prof != nil {
		sh.prof.add(sh.id, 2, time.Since(t0))
	}
}

// sortActive restores ascending registration order after wake-ups appended
// out of place. The list is almost sorted, so insertion sort beats
// sort.Slice and allocates nothing.
func sortActive(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// stepInline runs the executor's phases on the calling goroutine: used
// when workers are not running (one partition, Step outside Run, or a
// single CPU). With a single partition the whole cycle runs under one
// recover; several partitions recover per partition and phase, exactly as
// the workers do.
func (e *Engine) stepInline() {
	if len(e.parts) == 1 {
		e.runCycle()
		return
	}
	for ph := 0; ph < 3; ph++ {
		for pi := range e.parts {
			e.runPhase(pi, ph)
		}
	}
}

// runCycle executes all three phases of a single-partition engine under
// one panic recovery.
func (e *Engine) runCycle() {
	p := e.parts[0]
	defer e.recoverPartition(0, p)
	p.tickPhase(e.now)
	p.portPhase(e.now)
	p.commitPhase(e.now)
}

// runPhase executes one phase of one partition, converting a component
// panic into a recorded error.
func (e *Engine) runPhase(pi, ph int) {
	p := e.parts[pi]
	defer e.recoverPartition(pi, p)
	switch ph {
	case 0:
		p.tickPhase(e.now)
	case 1:
		p.portPhase(e.now)
	case 2:
		p.commitPhase(e.now)
	}
}

// recoverPartition converts a component panic in partition p into a
// recorded error naming the component and the cycle it was executing;
// deferred by every execution wrapper (runCycle, runPhase, runRoundPart).
// A panic outside any component (engine code) falls back to e.now.
func (e *Engine) recoverPartition(pi int, p *partition) {
	if r := recover(); r != nil {
		pe := partitionErr{partition: pi, cycle: e.now, value: r}
		for _, sh := range p.shards {
			if sh.cur != nil {
				pe.component, pe.cycle = sh.cur, sh.curAt
				break
			}
		}
		e.errMu.Lock()
		e.errs = append(e.errs, pe)
		e.errMu.Unlock()
		e.errCount.Add(1)
	}
}

// opRound is the worker op dispatching one min-clock round (bounds in
// e.roundClock/e.roundEnd); ops 0-2 are the single-cycle phases.
const opRound uint8 = 3

// stepWorkers drives the persistent workers through the three phases. The
// barrier per phase is one atomic decrement per partition plus a single
// channel receive — no goroutine spawns, no WaitGroup.
func (e *Engine) stepWorkers() {
	for ph := uint8(0); ph < 3; ph++ {
		e.pending.Store(int32(len(e.parts)))
		for _, ch := range e.workCh {
			ch <- ph
		}
		<-e.doneCh
	}
}

func (e *Engine) workerLoop(pi int, ch <-chan uint8) {
	for op := range ch {
		if op == opRound {
			e.runRoundPart(pi)
		} else {
			e.runPhase(pi, int(op))
		}
		if e.pending.Add(-1) == 0 {
			e.doneCh <- struct{}{}
		}
	}
}

// startWorkers launches one goroutine per partition. They are stopped by
// stopWorkers when Run returns, so an engine that is built, run, and
// dropped (the experiment harnesses build dozens) leaks nothing.
func (e *Engine) startWorkers() {
	if e.workersOn {
		return
	}
	e.ensureParts()
	e.workersOn = true
	if e.doneCh == nil {
		e.doneCh = make(chan struct{}, 1)
	}
	e.workCh = make([]chan uint8, len(e.parts))
	for i := range e.parts {
		ch := make(chan uint8, 1)
		e.workCh[i] = ch
		go e.workerLoop(i, ch)
	}
}

func (e *Engine) stopWorkers() {
	if !e.workersOn {
		return
	}
	for _, ch := range e.workCh {
		close(ch)
	}
	e.workCh = nil
	e.workersOn = false
}

// Settle pads per-cycle statistics of components that are currently asleep
// (see CatchUpper). Call before reading metrics mid-run or after Run; it
// must not run concurrently with Step.
func (e *Engine) Settle() {
	for _, cs := range e.comps {
		if cu, ok := cs.t.(CatchUpper); ok {
			cu.CatchUp(e.now)
		}
	}
}

// Err returns the error from the first recovered component panic, or nil.
// The message names the component and the cycle it panicked in. When
// several partitions panicked in the same cycle, the lowest partition index
// wins so the report is deterministic.
// The no-error fast path is a single atomic load (Run polls every epoch).
func (e *Engine) Err() error {
	if e.errCount.Load() == 0 {
		return nil
	}
	e.errMu.Lock()
	defer e.errMu.Unlock()
	if len(e.errs) == 0 {
		return nil
	}
	sort.Slice(e.errs, func(i, j int) bool { return e.errs[i].partition < e.errs[j].partition })
	pe := e.errs[0]
	name := fmt.Sprintf("%T", pe.component)
	if s, ok := pe.component.(fmt.Stringer); ok {
		name = fmt.Sprintf("%s (%T)", s.String(), pe.component)
	}
	return fmt.Errorf("sim: component %s panicked at cycle %d: %v", name, pe.cycle, pe.value)
}

// progressSum totals the registered components' work counters.
func (e *Engine) progressSum() uint64 {
	var sum uint64
	for _, r := range e.reporters {
		sum += r.Progress()
	}
	return sum
}

// maxWatchdogReports bounds the component list in a watchdog error.
const maxWatchdogReports = 8

// stalledReport collects the non-empty Health strings of registered
// components, in registration order.
func (e *Engine) stalledReport() string {
	var parts []string
	extra := 0
	for _, cs := range e.comps {
		hr, ok := cs.t.(HealthReporter)
		if !ok {
			continue
		}
		h := hr.Health()
		if h == "" {
			continue
		}
		if len(parts) >= maxWatchdogReports {
			extra++
			continue
		}
		name := fmt.Sprintf("%T", cs.t)
		if s, ok := cs.t.(fmt.Stringer); ok {
			name = s.String()
		}
		parts = append(parts, name+": "+h)
	}
	if extra > 0 {
		parts = append(parts, fmt.Sprintf("(+%d more)", extra))
	}
	return strings.Join(parts, "; ")
}

// checkWatchdog evaluates the zero-progress watchdog; a non-nil return is
// the diagnostic error Run should stop with. Stuckness is accounted in
// simulated cycles (the first stuck observation records its cycle; the
// watchdog fires one full interval later), so multi-cycle epochs neither
// advance nor delay the firing cycle: Run evaluates the check on the same
// cycle grid for every lookahead setting.
func (e *Engine) checkWatchdog() error {
	if e.watchEvery == 0 || e.now-e.lastCheck < e.watchEvery {
		return nil
	}
	e.lastCheck = e.now
	sum := e.progressSum()
	if sum != e.lastSum {
		e.lastSum = sum
		e.stuckSince = 0
		return nil
	}
	// No progress over a full interval. Only a wedge if some component
	// still holds work — an all-quiescent chip is legitimately idle
	// (e.g. waiting on future task release cycles).
	report := e.stalledReport()
	if report == "" {
		e.stuckSince = 0
		return nil
	}
	if e.stuckSince == 0 {
		e.stuckSince = e.now
		return nil
	}
	if e.now-e.stuckSince < e.watchEvery {
		return nil
	}
	// Settle so any metrics read off the wedged simulation (health dumps,
	// post-mortem snapshots) describe the cycle the diagnostic names.
	e.Settle()
	return fmt.Errorf("sim: watchdog: %w for %d cycles at cycle %d; stalled: %s",
		ErrStalled, e.now-e.stuckSince+e.watchEvery, e.now, report)
}

// Run advances until done returns true or the cycle budget is exhausted. It
// returns the cycle count at stop and an error when the budget ran out, a
// component panicked (at any partition count), or the progress watchdog
// detected a wedged simulation. With more than one partition Run starts
// the persistent phase workers for its duration (unless the process has a
// single CPU, where the inline path is strictly faster).
func (e *Engine) Run(maxCycles uint64, done func() bool) (uint64, error) {
	e.ensureParts()
	if len(e.parts) > 1 && runtime.GOMAXPROCS(0) > 1 {
		e.startWorkers()
		defer e.stopWorkers()
	}
	// The done condition and the watchdog are evaluated only on an absolute
	// cycle grid whose pitch is the done grid — a pure function of the
	// wiring, NOT of any SetLookahead override — so every executor setting
	// observes completion (and wedges) on the identical cycle. Windows are
	// clipped to realign with the grid after a mid-grid entry (e.g. a
	// budget-sliced timeline run) and to respect the remaining budget, so no
	// grid cycle is ever skipped and budget stops land exactly. When every
	// shard window is 1 the engine steps cycle by cycle.
	grid := e.doneGrid()
	maxWin := e.shardWindows(grid)
	start := e.now
	for {
		if e.now%grid == 0 && done != nil && done() {
			return e.now, nil
		}
		left := maxCycles - (e.now - start)
		if left == 0 {
			break
		}
		n := uint64(1)
		if maxWin > 1 {
			n = min(grid-e.now%grid, left)
		}
		if n > 1 {
			e.advanceWindow(n)
		} else {
			e.Step()
		}
		if err := e.Err(); err != nil {
			return e.now, err
		}
		if e.now%grid == 0 {
			if err := e.checkWatchdog(); err != nil {
				return e.now, err
			}
		}
	}
	if done != nil && done() {
		return e.now, nil
	}
	return e.now, fmt.Errorf("sim: %w: budget of %d at cycle %d", ErrBudget, maxCycles, e.now)
}

// timerEntry schedules the wake-up of comps[idx] at cycle at.
type timerEntry struct {
	at  uint64
	idx int32
}

// timerHeap is a binary min-heap ordered by (at, idx); the idx tie-break
// keeps wake order deterministic.
type timerHeap []timerEntry

func timerLess(a, b timerEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.idx < b.idx
}

func (h *timerHeap) push(e timerEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !timerLess((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

// pop removes and returns the index of the earliest entry.
func (h *timerHeap) pop() int32 {
	old := *h
	idx := old[0].idx
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && timerLess(old[l], old[smallest]) {
			smallest = l
		}
		if r < n && timerLess(old[r], old[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		old[i], old[smallest] = old[smallest], old[i]
		i = smallest
	}
	return idx
}
