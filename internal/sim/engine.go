// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives "processes" — ordinary Go functions, each running on its
// own runtime coroutine — in strict cooperative lockstep: exactly one process
// executes at a time, and control returns to the engine whenever a process
// blocks on a simulated operation (Sleep, Event.Wait, Queue.Recv,
// Resource.Acquire, ...). Virtual time only advances between events, so
// simulations are fully deterministic: the same configuration and seed
// produce the same event trace and the same virtual timings on every run,
// regardless of GOMAXPROCS.
//
// All higher layers of this repository (the InfiniBand fabric, the GigE
// network, the FTB backplane, disks, file systems, the MPI runtime, and the
// migration framework itself) are built on this kernel.
//
// # Hot path
//
// The kernel is engineered so that the steady-state cost of an event is a few
// pointer moves and at most one coroutine switch, with no allocation:
//
//   - events carry resume targets (process, token, reason) inline, so waking
//     a process allocates no closure;
//   - retired events are recycled through a freelist;
//   - future events live in a typed binary heap that compares (t, key, seq)
//     inline, with no interface dispatch and no boxing;
//   - wakeups scheduled for the current instant — the overwhelmingly common
//     case: queue handoffs, event broadcasts, resource admissions — bypass
//     the time-ordered heap entirely and go through a FIFO ready ring, which
//     batches any number of already-runnable processes at O(1) each;
//   - a process parks and resumes through a runtime coroutine switch
//     (iter.Pull), a direct goroutine-to-goroutine handoff that never goes
//     through the Go scheduler's run queue.
//
// Pop order is still exactly (time, seq), so none of this is observable in
// simulation results; see TestGoldenTraceUnchanged in internal/exp.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is re-exported from package time; all simulated durations use it.
type Duration = time.Duration

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds returns the time as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Sub returns the duration between two points in virtual time.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

func (t Time) String() string { return Duration(t).String() }

// wake reasons delivered to a parked process.
const (
	wakeSignal  = iota // the condition the process waited on was met
	wakeTimeout        // a WaitTimeout/RecvTimeout deadline expired
	wakeKill           // engine shutdown: unwind the process's coroutine
	wakeStart          // a spawned process's start event (see Engine.Spawn)
)

// killSentinel is the panic value used to unwind killed processes.
type killSentinel struct{}

// event is one scheduled occurrence. Two flavours share the struct: callback
// events run fn; resume events (fn == nil) wake process p if its wait token
// still matches. Resume events carry their target inline precisely so that
// the wake path allocates nothing.
type event struct {
	t      Time
	seq    uint64
	key    uint64 // perturbation tie-break; always 0 when perturbation is off
	fn     func()
	p      *Proc
	token  uint64
	reason int
	next   *event // freelist link
}

// eventHeap is a binary min-heap of future events ordered by (t, key, seq).
// It is container/heap's algorithm specialised to *event: the comparison is
// inlined and nothing is boxed into an interface on push or pop.
type eventHeap []*event

// before reports whether a pops before b.
func before(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() *event {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	h.down(0)
	return top
}

// init restores the heap order after keys changed in place.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !before(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && before(h[r], h[j]) {
			j = r
		}
		if !before(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Engine is a discrete-event simulation engine. Create one with NewEngine,
// add processes with Spawn, and execute with Run. An Engine must not be used
// from multiple OS threads concurrently; all concurrency is virtual. Distinct
// Engines are fully independent and may run concurrently (one engine per
// goroutine — see internal/exp.RunParallel).
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap    // future events, ordered by (t, seq)
	ready  ring[*event] // events at exactly `now`, in seq order (the batch path)
	free   *event       // retired-event freelist
	rng    *rand.Rand
	seed   int64

	dispatched uint64 // events executed, for events/sec reporting

	perturb *rand.Rand // schedule perturbation source; nil = off (the default)

	live     int // processes spawned and not yet finished
	nextPID  int
	procs    map[int]*Proc // live processes, for deadlock reporting
	flowFree []*Proc       // retired flow Procs, recycled by SpawnFlow
	procFree []*Proc       // retired coroutine-backed Procs, recycled by Spawn

	tracer  Tracer
	failure error // first process panic, aborts the run
	stopped bool

	obsData any              // opaque per-engine observability state (internal/obs)
	resObs  ResourceObserver // resource usage hook; nil when observability is off

	flushEvery uint64     // dispatch period of the flush hook; 0 = off
	flushFn    func(Time) // periodic host-side run-loop hook (see SetFlushHook)
}

// ResourceObserver receives a callback on every Resource usage transition
// (grant or release). Implementations must be pure host-side bookkeeping —
// no engine calls, no blocking — so that observing a run cannot change it.
type ResourceObserver interface {
	ResourceUsage(t Time, name string, used, capacity int64)
}

// NewEngine returns an engine with the given RNG seed. The seed fully
// determines every random choice made anywhere in the simulation.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
		procs:  make(map[int]*Proc),
		tracer: nopTracer{},
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Events returns the number of events the engine has dispatched so far
// (including stale wakeups that were discarded). Benchmarks divide this by
// wall time to report kernel throughput in events/sec.
func (e *Engine) Events() uint64 { return e.dispatched }

// SetTracer installs a trace sink. Pass nil to disable tracing.
func (e *Engine) SetTracer(t Tracer) {
	if t == nil {
		t = nopTracer{}
	}
	e.tracer = t
}

// Trace emits a trace record at the current virtual time.
func (e *Engine) Trace(kind, who, detail string) {
	e.tracer.Trace(e.now, kind, who, detail)
}

// SetObsData attaches opaque observability state to the engine (see
// internal/obs.Enable). Like the engine itself it is engine-local: one
// collector per engine under exp.RunParallel.
func (e *Engine) SetObsData(v any) { e.obsData = v }

// ObsData returns the state attached with SetObsData, or nil.
func (e *Engine) ObsData() any { return e.obsData }

// SetResourceObserver installs the resource usage hook. Pass nil to disable
// (the default); the disabled path is a single nil check per transition.
func (e *Engine) SetResourceObserver(o ResourceObserver) { e.resObs = o }

// SetFlushHook installs fn to run in engine context every `every` dispatched
// events. The hook is strictly host-side: it must not schedule events,
// wake processes or otherwise touch the simulation — it exists so live
// telemetry (heartbeats, data-plane gauges, stream flushes) has a periodic anchor
// inside long event storms. Pass fn nil to disable (the default); the
// disabled path is one nil check per dispatched event, and installing a hook
// cannot change simulated results (TestFlushHookPassive pins this).
func (e *Engine) SetFlushHook(every uint64, fn func(Time)) {
	if every == 0 {
		every = 1 << 12
	}
	e.flushEvery, e.flushFn = every, fn
}

// allocEvent takes an event from the freelist, or allocates one.
func (e *Engine) allocEvent() *event {
	ev := e.free
	if ev == nil {
		return &event{}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// freeEvent resets ev and returns it to the freelist.
func (e *Engine) freeEvent(ev *event) {
	*ev = event{next: e.free}
	e.free = ev
}

// pushEvent enqueues ev: onto the ready ring when due now (no heap traffic),
// onto the time-ordered heap otherwise. Events at equal times fire in
// scheduling order either way, so the split is invisible to the simulation.
//
// With perturbation enabled every event instead goes through the heap with a
// random tie-break key, so same-instant events pop in a seeded-shuffled order
// (see EnablePerturbation).
func (e *Engine) pushEvent(ev *event) {
	e.seq++
	ev.seq = e.seq
	if ev.t <= e.now {
		ev.t = e.now
		if e.perturb == nil {
			e.ready.push(ev)
			return
		}
	}
	if e.perturb != nil {
		ev.key = e.perturb.Uint64()
	}
	e.events.push(ev)
}

// EnablePerturbation turns on schedule perturbation: events scheduled for the
// same virtual instant fire in a deterministic seeded shuffle instead of
// scheduling order. Timestamps never change — only the tie-break among
// simultaneous events — so any ordering the protocol under test relies on must
// be enforced by explicit synchronization, which is exactly what the
// internal/check harness probes. The shuffle is a pure function of the seed:
// the same (engine seed, perturbation seed) pair replays identically.
//
// Call before Run. Events already queued (e.g. the start events of processes
// spawned during setup) are re-keyed so the shuffle covers them too. When
// never called, the engine is bit-identical to one without this feature (the
// golden-trace tests in internal/exp and internal/sim pin this).
func (e *Engine) EnablePerturbation(seed int64) {
	e.perturb = rand.New(rand.NewSource(seed))
	// Migrate the ready ring onto the heap: the ring is FIFO and cannot
	// express a shuffled order.
	for e.ready.len() > 0 {
		ev := e.ready.pop()
		ev.key = e.perturb.Uint64()
		e.events.push(ev)
	}
	for _, ev := range e.events {
		ev.key = e.perturb.Uint64()
	}
	e.events.init()
}

// Perturbed reports whether schedule perturbation is enabled.
func (e *Engine) Perturbed() bool { return e.perturb != nil }

// schedule enqueues fn to run at time t (>= now).
func (e *Engine) schedule(t Time, fn func()) {
	ev := e.allocEvent()
	ev.t, ev.fn = t, fn
	e.pushEvent(ev)
}

// After schedules fn to run after duration d of virtual time. It may be
// called from process context or from another scheduled callback. fn runs in
// engine context and must not block on simulated operations; to do blocking
// work, have fn spawn a process.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now.Add(d), fn)
}

// Spawn creates a new process executing fn and schedules it to start at the
// current virtual time. It may be called before Run, from process context, or
// from a scheduled callback.
//
// Spawn is pooled end to end: retired Procs are recycled (struct and
// coroutine — the coroutine waits in procLoop between lives), and the start
// event is a plain resume bound to the current token, so steady-state
// process churn allocates nothing.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	e.nextPID++
	var p *Proc
	if n := len(e.procFree); n > 0 {
		p = e.procFree[n-1]
		e.procFree[n-1] = nil
		e.procFree = e.procFree[:n-1]
		p.token++ // retire any registration that survived the previous life
		p.started, p.done = false, false
	} else {
		p = &Proc{e: e}
	}
	p.name, p.id, p.fn = name, e.nextPID, fn
	e.live++
	e.procs[p.id] = p
	e.scheduleResume(p, e.now, wakeStart)
	return p
}

// SpawnFlow creates a flow: a lightweight process driven as a state machine
// by engine callbacks instead of a coroutine. step is invoked once when the
// flow's start event fires and again on every wakeup; it blocks by calling a
// Flow* primitive (FlowSleep, Resource.FlowAcquireStart/Retry) and returning,
// and terminates with FlowEnd.
//
// A flow is trace-equivalent to a Spawned process: it occupies one pid, emits
// the same proc.start/proc.end records, counts toward LiveProcs, appears in
// deadlock reports, and pushes events in exactly the same order — so
// converting a process to a flow cannot change simulation results (see
// TestFlowMatchesProcTrace). What it saves is the host-side cost: no
// coroutine, no stack and no switch per wakeup — a step is a plain function
// call from the run loop — and no per-spawn allocation (retired flow Procs
// are recycled through a freelist).
func (e *Engine) SpawnFlow(name string, step func(*Proc, int)) *Proc {
	var p *Proc
	if n := len(e.flowFree); n > 0 {
		p = e.flowFree[n-1]
		e.flowFree[n-1] = nil
		e.flowFree = e.flowFree[:n-1]
		p.token++ // retire any registration that survived the previous life
		p.started, p.done = false, false
	} else {
		p = &Proc{e: e}
	}
	e.nextPID++
	p.name, p.id, p.step = name, e.nextPID, step
	e.live++
	e.procs[p.id] = p
	// The start event is a plain resume bound to the current token: one push,
	// exactly like Spawn's start callback, but with no closure allocation.
	e.scheduleResume(p, e.now, wakeSignal)
	return p
}

// recycleFlow returns a finished flow Proc to the freelist. The token is
// deliberately not reset: it only ever grows, so wakeups addressed to a
// previous life can never match a recycled Proc.
func (e *Engine) recycleFlow(p *Proc) {
	p.step = nil
	p.name = ""
	p.blockKind, p.blockName = "", ""
	e.flowFree = append(e.flowFree, p)
}

func (e *Engine) start(p *Proc) {
	p.started = true
	e.tracer.Trace(e.now, "proc.start", p.name, "")
	if p.next == nil {
		// A fresh Proc: bind it to a new coroutine, which runs the first
		// life as soon as it is switched to. A pooled Proc's coroutine is
		// already waiting in procLoop for the next life.
		e.newCoroutine(p)
	}
	p.reason = wakeStart
	p.next()
}

// procLoop is the body of a pooled process coroutine: run one life, return
// the Proc to the pool, and yield to the engine until Spawn assigns the next
// life (wakeStart) or Shutdown retires the coroutine (yield reports false).
func (e *Engine) procLoop(p *Proc) {
	for {
		e.runProc(p)
		if !p.yield(struct{}{}) || p.reason != wakeStart {
			return
		}
	}
}

// runProc executes one life of process p on its coroutine: the body, panic
// conversion, end-of-life bookkeeping and recycling. The switch back to the
// engine happens in procLoop once runProc returns.
func (e *Engine) runProc(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, killed := r.(killSentinel); !killed && e.failure == nil {
				e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
		}
		p.done = true
		e.live--
		delete(e.procs, p.id)
		e.tracer.Trace(e.now, "proc.end", p.name, "")
		p.name = ""
		p.blockKind, p.blockName = "", ""
		e.procFree = append(e.procFree, p)
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
}

// resume wakes process p with the given reason if its wait token still
// matches; stale wakeups (e.g. a timeout firing after the event it guarded)
// are discarded.
func (e *Engine) resume(p *Proc, token uint64, reason int) {
	if p.done || p.token != token {
		return
	}
	if reason == wakeStart {
		e.start(p)
		return
	}
	if p.step != nil {
		e.resumeFlow(p, reason)
		return
	}
	p.reason = reason
	p.next()
}

// resumeFlow advances a flow in engine context. The first wakeup doubles as
// the start event (tracing proc.start, as Engine.start does for coroutine
// processes); the token bump mirrors park's increment-on-wake. A panic in the
// step function is converted into the run failure exactly like a process
// panic, including the proc.end record.
func (e *Engine) resumeFlow(p *Proc, reason int) {
	defer func() {
		if r := recover(); r != nil {
			if e.failure == nil {
				e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
			if !p.done {
				p.done = true
				e.live--
				delete(e.procs, p.id)
				e.tracer.Trace(e.now, "proc.end", p.name, "")
			}
		}
	}()
	if !p.started {
		p.started = true
		e.tracer.Trace(e.now, "proc.start", p.name, "")
	}
	p.token++
	p.blockKind, p.blockName = "", ""
	p.step(p, reason)
}

// scheduleResume schedules a wakeup of p at time t, bound to p's current wait
// token. No closure is allocated: the target rides in the event itself.
func (e *Engine) scheduleResume(p *Proc, t Time, reason int) {
	ev := e.allocEvent()
	ev.t, ev.p, ev.token, ev.reason = t, p, p.token, reason
	e.pushEvent(ev)
}

// wakeNow schedules an immediate (current-time) wakeup of p. It lands on the
// ready ring: when a broadcast makes many processes runnable at once, each
// costs an O(1) ring append rather than an O(log n) heap insert.
func (e *Engine) wakeNow(p *Proc, reason int) {
	e.scheduleResume(p, e.now, reason)
}

// DeadlockError reports that the event queue drained while processes were
// still blocked on conditions that can no longer occur.
type DeadlockError struct {
	At      Time
	Blocked []string // "name: reason" for each blocked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked: %v", d.At, len(d.Blocked), d.Blocked)
}

// Run executes events until the queue is empty or a process panics. It
// returns a *DeadlockError if processes remain blocked when the queue drains,
// or the panic (wrapped) if a process failed.
func (e *Engine) Run() error {
	return e.run(-1)
}

// RunUntil executes events with timestamps <= deadline. Processes blocked at
// the deadline are not treated as deadlocked; the simulation can be resumed
// with another Run/RunUntil call.
func (e *Engine) RunUntil(deadline Time) error {
	return e.run(deadline)
}

// popEvent removes the globally next event by (t, seq). Both sources are
// individually ordered — the ready ring holds only current-time events in seq
// order, the heap is ordered by (t, seq) — so comparing heads is enough.
func (e *Engine) popEvent() *event {
	if e.ready.len() == 0 {
		return e.events.pop()
	}
	if len(e.events) > 0 {
		rh, hh := *e.ready.at(0), e.events[0]
		if hh.t < rh.t || (hh.t == rh.t && hh.seq < rh.seq) {
			return e.events.pop()
		}
	}
	return e.ready.pop()
}

func (e *Engine) run(deadline Time) error {
	e.stopped = false
	for (e.ready.len() > 0 || len(e.events) > 0) && !e.stopped {
		if deadline >= 0 {
			next := e.nextTime()
			if next > deadline {
				e.now = deadline
				return e.failure
			}
		}
		ev := e.popEvent()
		e.now = ev.t
		e.dispatched++
		if e.flushFn != nil && e.dispatched%e.flushEvery == 0 {
			e.flushFn(e.now)
		}
		if fn := ev.fn; fn != nil {
			e.freeEvent(ev)
			fn()
		} else {
			p, token, reason := ev.p, ev.token, ev.reason
			e.freeEvent(ev)
			e.resume(p, token, reason)
		}
		if e.failure != nil {
			return e.failure
		}
	}
	if e.failure != nil {
		return e.failure
	}
	if deadline < 0 && e.live > 0 && !e.stopped {
		return e.deadlock()
	}
	return nil
}

// nextTime returns the timestamp of the next pending event. Call only while
// events remain.
func (e *Engine) nextTime() Time {
	if e.ready.len() > 0 {
		return (*e.ready.at(0)).t
	}
	return e.events[0].t
}

// Stop halts the run loop after the current event; remaining events stay
// queued and the run can be resumed.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the last run was halted by Stop. The partitioned
// executor uses it to propagate one partition's Stop to the whole ensemble.
func (e *Engine) Stopped() bool { return e.stopped }

// At schedules fn to run at absolute virtual time t (clamped to now). The
// partitioned executor uses it to inject cross-partition deliveries at their
// precomputed arrival times; fn runs in engine context and must not block.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.schedule(t, fn)
}

// NextEventTime returns the timestamp of the earliest pending event, or
// (0, false) when no events are queued. The partitioned executor derives the
// next safe window horizon from it.
func (e *Engine) NextEventTime() (Time, bool) {
	if e.ready.len() == 0 && len(e.events) == 0 {
		return 0, false
	}
	return e.nextTime(), true
}

// BlockedProcs returns a sorted description of every live process and what it
// is blocked on — the payload of a DeadlockError, exposed so the partitioned
// executor can aggregate liveness reports across engines.
func (e *Engine) BlockedProcs() []string {
	var blocked []string
	for _, p := range e.procs {
		blocked = append(blocked, fmt.Sprintf("%s: %s", p.name, p.blockReason()))
	}
	sort.Strings(blocked)
	return blocked
}

func (e *Engine) deadlock() error {
	return &DeadlockError{At: e.now, Blocked: e.BlockedProcs()}
}

// LiveProcs returns the number of processes that have been spawned and have
// not yet finished.
func (e *Engine) LiveProcs() int { return e.live }

// Shutdown unwinds every still-blocked process. Call it once the
// simulation's result has been extracted (after Run/RunUntil/Stop) so that
// perpetual daemons — network pumps, backplane agents — do not leak
// coroutines (and the goroutines under them) across repeated simulations in
// one Go process. The engine must not be used afterwards.
func (e *Engine) Shutdown() {
	for e.live > 0 {
		// Unwind in ascending-id order (deterministic). The id list is
		// snapshotted and sorted once per pass rather than rescanning the
		// map per victim, which was quadratic at cluster scale; a second
		// pass only happens if a dying process's defer spawned new ones.
		ids := make([]int, 0, len(e.procs))
		for id := range e.procs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			victim, ok := e.procs[id]
			if !ok || victim.done {
				continue
			}
			if !victim.started {
				// Its start event never fired (the run stopped first). A
				// fresh Proc has no coroutine to unwind; a recycled one has
				// its pooled coroutine waiting in procLoop for the life that
				// now never begins — retire it directly.
				if victim.next != nil {
					victim.retire()
				}
				victim.done = true
				victim.fn = nil
				e.live--
				delete(e.procs, victim.id)
				continue
			}
			if victim.step != nil {
				// Flows have no coroutine; retiring one is bookkeeping plus
				// the same proc.end record a killed process would emit.
				victim.done = true
				e.live--
				delete(e.procs, victim.id)
				e.tracer.Trace(e.now, "proc.end", victim.name, "")
				continue
			}
			// Switch to the parked coroutine with a kill: park panics
			// killSentinel, the body unwinds through its defers, and
			// runProc returns the Proc to the pool on the way out.
			victim.reason = wakeKill
			victim.next()
		}
	}
	// Retire the idle pooled coroutines (including those of processes killed
	// above, which re-entered the pool on their way out).
	for i, p := range e.procFree {
		p.retire()
		e.procFree[i] = nil
	}
	e.procFree = nil
	// Flush buffered trace sinks (sim.Writer and friends) so records are not
	// lost when the process exits right after Shutdown.
	if f, ok := e.tracer.(interface{ Flush() error }); ok {
		_ = f.Flush()
	}
}
