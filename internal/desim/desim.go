// Package desim is a minimal, deterministic discrete-event simulation
// engine: a simulation clock, a pending-event heap with stable FIFO
// tie-breaking, cancellable events, and time-weighted statistics. It is the
// laboratory substrate on which the queueing and cluster simulators run in
// place of the paper's physical testbed.
//
// Events live in a slice-backed arena rather than as individual heap
// allocations: scheduling reuses slots through a free list, handles address
// slots by (index, generation) so stale handles go inert when a slot is
// recycled, and cancellation is lazy — a cancelled event stays queued until
// it is popped or until cancelled events outnumber live ones, at which
// point the queue is compacted in place. Reschedule moves a pending event
// to a new time where it sits in the heap, so the cancel-and-replace
// pattern leaves no dead entry behind. The steady-state schedule/fire
// path performs no allocations.
package desim

import (
	"errors"
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Handle identifies a scheduled event and allows cancelling it. The zero
// Handle is valid and refers to no event. Handles stay cheap to copy and
// never keep a fired event alive: once the event fires or is reaped, the
// slot's generation advances and the handle goes inert.
type Handle struct {
	sim *Simulator
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// still pending.
func (h Handle) Cancel() bool {
	if h.sim == nil {
		return false
	}
	ev := &h.sim.arena[h.idx]
	if ev.gen != h.gen || ev.state != statePending {
		return false
	}
	ev.state = stateCancelled
	h.sim.cancelled++
	h.sim.cancelledTotal++
	if h.sim.tracer != nil {
		h.sim.tracer.TraceEvent(TraceCancel, h.sim.now, ev.at)
	}
	h.sim.maybeCompact()
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool {
	if h.sim == nil {
		return false
	}
	ev := &h.sim.arena[h.idx]
	return ev.gen == h.gen && ev.state == statePending
}

// Event slot states. A slot cycles free -> pending -> (cancelled ->) free;
// the generation counter advances each time the slot returns to free.
const (
	stateFree = iota
	statePending
	stateCancelled
)

// event is one arena slot. pos is the slot's index in the heap while it
// is queued there (heap mode only), so Reschedule can find it.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	gen   uint32
	pos   int32
	state uint8
}

// entry is one heap element. It carries its event's (at, seq) key inline,
// so sifts compare keys without loading arena slots.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

// less orders entries by (at, seq): FIFO among simultaneous events.
func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator owns the clock and the event queue. The zero value is not
// usable; call New.
type Simulator struct {
	now       Time
	arena     []event // slot storage; grows, never shrinks
	free      []int32 // recycled slot indexes
	queue     []entry // binary min-heap keyed by (at, seq)
	seq       uint64
	cancelled int // cancelled events still sitting in queue
	stopped   bool

	// Engine counters. The simulator is single-writer by construction
	// (events fire on one goroutine), so these are plain fields — an
	// increment, not an atomic — and the observability registry reads
	// them through Stats() only when a snapshot is taken. This keeps the
	// schedule/fire path allocation-free and within noise of the
	// uninstrumented engine.
	fired          uint64
	scheduled      uint64
	cancelledTotal uint64
	compactions    uint64
	maxQueue       int

	// wheel, when non-nil, replaces the binary heap with the hierarchical
	// timing wheel (see wheel.go); wheelSpare parks a built wheel across
	// UseHeap/UseWheel flips so alternating runs reuse its storage.
	wheel      *timingWheel
	wheelSpare *timingWheel

	tracer Tracer
}

// TraceOp labels one scheduler operation for event tracing.
type TraceOp uint8

// Scheduler operations reported to a Tracer.
const (
	TraceSchedule TraceOp = iota // event accepted by At/After/Reschedule; at = firing time
	TraceFire                    // event popped and executed; at = firing time
	TraceCancel                  // pending event cancelled or rescheduled; at = firing time it will no longer get
	TraceCompact                 // cancelled-event compaction pass; at = now
)

// String names the operation.
func (op TraceOp) String() string {
	switch op {
	case TraceSchedule:
		return "schedule"
	case TraceFire:
		return "fire"
	case TraceCancel:
		return "cancel"
	case TraceCompact:
		return "compact"
	}
	return "unknown"
}

// Tracer observes scheduler operations for post-hoc debugging of sim
// schedules. Implementations must not call back into the simulator.
// obs.TraceWriter is the JSONL implementation.
type Tracer interface {
	TraceEvent(op TraceOp, now, at Time)
}

// SetTracer installs (or, with nil, removes) the scheduler tracer. The
// untraced path costs one predictable nil check per operation.
func (s *Simulator) SetTracer(t Tracer) { s.tracer = t }

// Stats is a point-in-time copy of the engine counters.
type Stats struct {
	// Scheduled counts events accepted by At/After, plus one per
	// Reschedule.
	Scheduled uint64
	// Fired counts events executed.
	Fired uint64
	// Cancelled counts successful Handle.Cancel calls, plus one per
	// Reschedule of a pending event.
	Cancelled uint64
	// Compactions counts cancelled-event compaction passes.
	Compactions uint64
	// MaxQueue is the high-water mark of the pending-event heap
	// (including not-yet-reaped cancelled events).
	MaxQueue int
	// ArenaSlots is the number of event slots ever allocated.
	ArenaSlots int
}

// Stats reports the engine counters.
func (s *Simulator) Stats() Stats {
	return Stats{
		Scheduled:   s.scheduled,
		Fired:       s.fired,
		Cancelled:   s.cancelledTotal,
		Compactions: s.compactions,
		MaxQueue:    s.maxQueue,
		ArenaSlots:  len(s.arena),
	}
}

// New returns a simulator with the clock at 0.
func New() *Simulator {
	return &Simulator{}
}

// Reset returns the simulator to its initial state — clock at 0, empty
// queue, zeroed counters — while keeping the arena, free-list and queue
// capacity, so a reused simulator runs its next workload without
// re-growing event storage. Handles from before the Reset go inert: every
// in-use slot's generation advances, exactly as if its event had fired.
// A reset simulator is indistinguishable from a fresh one to its events
// (the clock and the FIFO tie-breaking sequence restart at zero), so
// reuse never changes simulation results.
func (s *Simulator) Reset() {
	for i := range s.arena {
		ev := &s.arena[i]
		if ev.state != stateFree {
			ev.gen++
			ev.state = stateFree
		}
		ev.fn = nil
	}
	// Refill the free list high-to-low: pops come from the tail, so a
	// reused simulator hands out slots in the same 0, 1, 2, ... order a
	// fresh one grows them.
	s.free = s.free[:0]
	for i := len(s.arena) - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	s.queue = s.queue[:0]
	s.now, s.seq, s.cancelled, s.stopped = 0, 0, 0, false
	s.fired, s.scheduled, s.cancelledTotal, s.compactions, s.maxQueue = 0, 0, 0, 0, 0
	if s.wheel != nil {
		s.wheel.reset()
	}
}

// Now reports the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Fired reports how many events have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// ErrPast reports an attempt to schedule an event before the current time.
var ErrPast = errors.New("desim: cannot schedule event in the past")

// At schedules fn to run at absolute time t. It panics if t precedes the
// current time (a simulation bug, not a recoverable condition).
func (s *Simulator) At(t Time, fn func()) Handle {
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Errorf("%w: now=%g, requested=%g", ErrPast, s.now, t))
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, event{})
		idx = int32(len(s.arena) - 1)
	}
	ev := &s.arena[idx]
	ev.at, ev.seq, ev.fn, ev.state = t, s.seq, fn, statePending
	s.seq++
	if s.wheel != nil {
		s.wheel.insert(idx, t)
		if n := s.wheel.pending(); n > s.maxQueue {
			s.maxQueue = n
		}
	} else {
		s.queue = append(s.queue, entry{at: t, seq: ev.seq, slot: idx})
		s.siftUp(len(s.queue) - 1)
		if len(s.queue) > s.maxQueue {
			s.maxQueue = len(s.queue)
		}
	}
	s.scheduled++
	if s.tracer != nil {
		s.tracer.TraceEvent(TraceSchedule, s.now, t)
	}
	return Handle{sim: s, idx: idx, gen: ev.gen}
}

// After schedules fn to run d seconds from now. Negative d panics.
func (s *Simulator) After(d Time, fn func()) Handle {
	return s.At(s.now+d, fn)
}

// Reschedule moves the event h refers to so that fn runs at absolute time
// t, and returns the event's new handle; h goes inert. The event gets a
// fresh FIFO sequence number — the same (t, seq) key h.Cancel() followed
// by At(t, fn) would give it — so the firing order is exactly that of
// cancel-and-replace. On the heap the pending event is sifted to its new
// place instead, leaving no dead entry to reap. The counters and the
// trace record it as that pair: one cancel, then one schedule. When h is
// not pending, or the simulator runs the timing wheel, Reschedule is
// exactly h.Cancel() followed by At(t, fn). A t before the current time
// panics, as in At.
func (s *Simulator) Reschedule(h Handle, t Time, fn func()) Handle {
	if h.sim != s || s.wheel != nil || !h.Pending() {
		h.Cancel()
		return s.At(t, fn)
	}
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Errorf("%w: now=%g, requested=%g", ErrPast, s.now, t))
	}
	ev := &s.arena[h.idx]
	s.cancelledTotal++
	if s.tracer != nil {
		s.tracer.TraceEvent(TraceCancel, s.now, ev.at)
	}
	earlier := t < ev.at
	ev.at, ev.seq, ev.fn = t, s.seq, fn
	ev.gen++ // h now names the cancelled event, which is gone
	s.seq++
	i := int(ev.pos)
	s.queue[i] = entry{at: t, seq: ev.seq, slot: h.idx}
	// The fresh seq makes the key larger unless t moved earlier.
	if earlier {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
	s.scheduled++
	if s.tracer != nil {
		s.tracer.TraceEvent(TraceSchedule, s.now, t)
	}
	return Handle{sim: s, idx: h.idx, gen: ev.gen}
}

// Stop halts the run loop after the currently executing event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events in timestamp order until the queue is empty, the
// horizon is reached, or Stop is called. Events scheduled exactly at the
// horizon do fire; later events stay queued. It returns the number of
// events executed during this call.
func (s *Simulator) Run(horizon Time) uint64 {
	if s.wheel != nil {
		return s.runWheel(horizon)
	}
	s.stopped = false
	var count uint64
	for len(s.queue) > 0 && !s.stopped {
		top := s.queue[0]
		if top.at > horizon {
			break
		}
		idx := top.slot
		ev := &s.arena[idx]
		s.popTop()
		if ev.state == stateCancelled {
			s.cancelled--
			s.release(idx)
			continue
		}
		s.now = ev.at
		fn := ev.fn
		// Release before firing: the slot is immediately reusable by events
		// fn schedules, and handles to this event go inert — matching the
		// fired-event semantics (Pending false, Cancel a no-op).
		s.release(idx)
		if s.tracer != nil {
			s.tracer.TraceEvent(TraceFire, s.now, s.now)
		}
		fn()
		s.fired++
		count++
	}
	if s.now < horizon && !s.stopped && !math.IsInf(horizon, 1) {
		// Advance the clock to the horizon even if the queue drained, so
		// time-weighted statistics cover the whole window. RunAll (infinite
		// horizon) leaves the clock at the last event instead.
		s.now = horizon
	}
	return count
}

// runWheel is the Run loop over the timing-wheel queue: identical fire
// semantics, with the pop coming off the wheel's due-heap instead of the
// main binary heap.
func (s *Simulator) runWheel(horizon Time) uint64 {
	s.stopped = false
	var count uint64
	w := s.wheel
	for !s.stopped {
		idx, ok := w.next()
		if !ok {
			break
		}
		ev := &s.arena[idx]
		if ev.at > horizon {
			break
		}
		w.popCur()
		if ev.state == stateCancelled {
			s.cancelled--
			s.release(idx)
			continue
		}
		s.now = ev.at
		fn := ev.fn
		s.release(idx)
		if s.tracer != nil {
			s.tracer.TraceEvent(TraceFire, s.now, s.now)
		}
		fn()
		s.fired++
		count++
	}
	if s.now < horizon && !s.stopped && !math.IsInf(horizon, 1) {
		s.now = horizon
	}
	return count
}

// RunAll executes events until the queue is empty or Stop is called.
func (s *Simulator) RunAll() uint64 {
	return s.Run(math.Inf(1))
}

// Pending reports the number of events still queued (including cancelled
// events not yet reaped).
func (s *Simulator) Pending() int {
	if s.wheel != nil {
		return s.wheel.pending()
	}
	return len(s.queue)
}

// release returns a slot to the free list and advances its generation so
// outstanding handles to it go inert.
func (s *Simulator) release(idx int32) {
	ev := &s.arena[idx]
	ev.fn = nil // drop the closure reference for the garbage collector
	ev.gen++
	ev.state = stateFree
	s.free = append(s.free, idx)
}

// maybeCompact reaps cancelled events eagerly once they outnumber live
// ones, so workloads that cancel far-future events (the cluster stations
// rescheduling completions) cannot grow the queue without bound. Removing
// entries never changes the firing order of live events: pop order is the
// total order (at, seq), independent of the heap's internal arrangement.
func (s *Simulator) maybeCompact() {
	if s.wheel != nil {
		if s.cancelled <= s.wheel.pending()/2 || s.wheel.pending() < 64 {
			return
		}
		s.wheel.compact()
		s.cancelled = 0
		s.compactions++
		if s.tracer != nil {
			s.tracer.TraceEvent(TraceCompact, s.now, s.now)
		}
		return
	}
	if s.cancelled <= len(s.queue)/2 || len(s.queue) < 64 {
		return
	}
	kept := s.queue[:0]
	for _, e := range s.queue {
		ev := &s.arena[e.slot]
		if ev.state == stateCancelled {
			s.release(e.slot)
			continue
		}
		// Every kept entry moves down by the number reaped before it;
		// heapify below only rewrites the positions of entries it moves.
		ev.pos = int32(len(kept))
		kept = append(kept, e)
	}
	s.queue = kept
	s.cancelled = 0
	s.compactions++
	if s.tracer != nil {
		s.tracer.TraceEvent(TraceCompact, s.now, s.now)
	}
	// Heapify bottom-up: O(n).
	for i := len(s.queue)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// less orders arena slots by (at, seq), the same order as entry.less; the
// timing wheel's heaps hold bare slot indexes and compare through it.
func (s *Simulator) less(a, b int32) bool {
	ea, eb := &s.arena[a], &s.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// siftUp restores the heap property from position i toward the root,
// recording the new position of every entry it moves.
func (s *Simulator) siftUp(i int) {
	q := s.queue
	node := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !node.less(q[parent]) {
			break
		}
		q[i] = q[parent]
		s.arena[q[i].slot].pos = int32(i)
		i = parent
	}
	q[i] = node
	s.arena[node.slot].pos = int32(i)
}

// popTop removes the minimum element.
func (s *Simulator) popTop() {
	q := s.queue
	n := len(q) - 1
	q[0] = q[n]
	s.queue = q[:n]
	if n > 0 {
		s.siftDown(0)
	}
}

// siftDown restores the heap property from position i toward the leaves,
// recording the new position of every entry it moves.
func (s *Simulator) siftDown(i int) {
	q := s.queue
	n := len(q)
	node := q[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].less(q[child]) {
			child = r
		}
		if !q[child].less(node) {
			break
		}
		q[i] = q[child]
		s.arena[q[i].slot].pos = int32(i)
		i = child
	}
	q[i] = node
	s.arena[node.slot].pos = int32(i)
}

// arenaSize reports the number of slots ever allocated (test hook for slot
// reuse).
func (s *Simulator) arenaSize() int { return len(s.arena) }

// TimeAverage tracks the time-weighted average of a piecewise-constant
// signal, e.g. the number of busy servers. Call Set at every change with
// the current simulated time; read Average at the end.
type TimeAverage struct {
	started  bool
	lastT    Time
	lastV    float64
	area     float64
	duration float64
	max      float64
}

// Set records that the signal takes value v from time t onward.
func (a *TimeAverage) Set(t Time, v float64) {
	if a.started {
		dt := t - a.lastT
		if dt > 0 {
			a.area += a.lastV * dt
			a.duration += dt
		}
	} else {
		a.started = true
		a.max = v
	}
	if v > a.max {
		a.max = v
	}
	a.lastT = t
	a.lastV = v
}

// Finish closes the observation window at time t without changing the
// value.
func (a *TimeAverage) Finish(t Time) { a.Set(t, a.lastV) }

// Reset closes the window at t and restarts accumulation from t with the
// current value, discarding everything observed before t. Statistics
// scoped to a post-warmup window snapshot their signals with Reset at the
// warmup boundary.
func (a *TimeAverage) Reset(t Time) {
	a.Set(t, a.lastV)
	a.area = 0
	a.duration = 0
	a.max = a.lastV
}

// Average reports the time-weighted mean (NaN if no time has elapsed).
func (a *TimeAverage) Average() float64 {
	if a.duration == 0 {
		return math.NaN()
	}
	return a.area / a.duration
}

// Max reports the largest value observed.
func (a *TimeAverage) Max() float64 {
	if !a.started {
		return math.NaN()
	}
	return a.max
}

// Duration reports the observed time span.
func (a *TimeAverage) Duration() float64 { return a.duration }

// Current reports the most recently set value.
func (a *TimeAverage) Current() float64 { return a.lastV }
