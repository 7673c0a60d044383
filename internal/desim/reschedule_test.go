package desim

import (
	"math/rand"
	"testing"
)

// TestRescheduleMovesInPlace pins the heap path's contract: the event
// moves without a dead entry, the old handle goes inert, the new one is
// live, and the counters record one cancel plus one schedule.
func TestRescheduleMovesInPlace(t *testing.T) {
	s := New()
	var got []int
	h := s.At(5, func() { got = append(got, 1) })
	s.At(3, func() { got = append(got, 2) })
	h2 := s.Reschedule(h, 2, func() { got = append(got, 3) })
	if h.Pending() || h.Cancel() {
		t.Fatal("old handle still live after Reschedule")
	}
	if !h2.Pending() {
		t.Fatal("rescheduled handle not pending")
	}
	if s.Pending() != 2 {
		t.Fatalf("queue holds %d entries, want 2 (no dead entry)", s.Pending())
	}
	st := s.Stats()
	if st.Scheduled != 3 || st.Cancelled != 1 {
		t.Fatalf("scheduled/cancelled = %d/%d, want 3/1", st.Scheduled, st.Cancelled)
	}
	s.RunAll()
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("fire order %v, want [3 2]", got)
	}
}

// TestRescheduleInPastPanics mirrors At's guard.
func TestRescheduleInPastPanics(t *testing.T) {
	s := New()
	h := s.At(5, func() {})
	s.At(1, func() {})
	s.Run(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Reschedule into the past did not panic")
		}
	}()
	s.Reschedule(h, 0.5, func() {})
}

// rescheduleDriver replays one operation sequence on a simulator, either
// through Reschedule (inPlace) or through the Cancel + At pair it must be
// equivalent to.
type rescheduleDriver struct {
	s       *Simulator
	inPlace bool
	hs      []Handle // the current handle of each tagged event
	fired   []firing
	trace   []traceRec

	innerMoves int
}

type firing struct {
	at  Time
	tag int
}

type traceRec struct {
	op      TraceOp
	now, at Time
}

func (d *rescheduleDriver) TraceEvent(op TraceOp, now, at Time) {
	d.trace = append(d.trace, traceRec{op, now, at})
}

func (d *rescheduleDriver) move(tag int, t Time) {
	if d.inPlace {
		d.hs[tag] = d.s.Reschedule(d.hs[tag], t, d.fire(tag))
		return
	}
	d.hs[tag].Cancel()
	d.hs[tag] = d.s.At(t, d.fire(tag))
}

// fire records the firing; every fourth tag also moves another event from
// inside the run loop, as station completions do. A budget keeps such
// chains from sustaining themselves forever.
func (d *rescheduleDriver) fire(tag int) func() {
	return func() {
		d.fired = append(d.fired, firing{d.s.Now(), tag})
		if tag%4 == 0 && d.innerMoves < 500 {
			d.innerMoves++
			d.move((tag*7+len(d.fired))%len(d.hs), d.s.Now()+Time(tag%3))
		}
	}
}

type rescheduleOp struct {
	kind int // 0 At, 1 Cancel, 2 Reschedule, 3 partial Run, 4 Reset, 5 Cancel a burst
	k    int
	dt   Time
}

func randomRescheduleOps(rng *rand.Rand, n int) []rescheduleOp {
	ops := make([]rescheduleOp, n)
	for i := range ops {
		op := rescheduleOp{k: rng.Intn(1 << 20), dt: Time(rng.Intn(64)) * 0.5}
		switch r := rng.Intn(1000); {
		case r < 350:
			op.kind = 0
		case r < 650:
			op.kind = 1
		case r < 850:
			op.kind = 2
		case r < 988:
			op.kind = 3
			op.dt = Time(rng.Intn(4)) * 0.25
		case r < 998:
			op.kind = 5
		default:
			op.kind = 4
		}
		ops[i] = op
	}
	return ops
}

// recent picks one of the last 64 tags, which are mostly still pending,
// so cancels (and bursts of them) pile up dead entries fast enough to
// force compactions.
func (d *rescheduleDriver) recent(k int) int {
	return len(d.hs) - 1 - k%min(len(d.hs), 64)
}

func (d *rescheduleDriver) apply(op rescheduleOp) {
	now := d.s.Now()
	switch op.kind {
	case 0:
		d.hs = append(d.hs, Handle{})
		tag := len(d.hs) - 1
		d.hs[tag] = d.s.At(now+op.dt, d.fire(tag))
	case 1:
		if len(d.hs) > 0 {
			d.hs[d.recent(op.k)].Cancel()
		}
	case 2:
		if len(d.hs) > 0 {
			d.move(d.recent(op.k), now+op.dt)
		}
	case 3:
		d.s.Run(now + op.dt)
	case 4:
		d.s.Reset()
	case 5:
		for i := 0; i < 64 && i < len(d.hs); i++ {
			d.hs[d.recent(i)].Cancel()
		}
	}
}

// checkHeap verifies the heap property, the inline keys and every
// recorded heap position.
func checkHeap(t *testing.T, s *Simulator) {
	t.Helper()
	for i, e := range s.queue {
		ev := &s.arena[e.slot]
		if int(ev.pos) != i {
			t.Fatalf("slot %d records heap position %d, sits at %d", e.slot, ev.pos, i)
		}
		if ev.at != e.at || ev.seq != e.seq {
			t.Fatalf("heap entry %d key (%g, %d) != slot key (%g, %d)", i, e.at, e.seq, ev.at, ev.seq)
		}
		if i > 0 && e.less(s.queue[(i-1)/2]) {
			t.Fatalf("heap property broken at %d", i)
		}
	}
}

func withoutCompactions(tr []traceRec) []traceRec {
	var out []traceRec
	for _, r := range tr {
		if r.op != TraceCompact {
			out = append(out, r)
		}
	}
	return out
}

// TestRescheduleMatchesCancelAt is the equivalence property: random
// sequences of At, Cancel, Reschedule, partial Run and Reset (with moves
// from inside firing events too) must fire the same events at the same
// times, leave the same handles live and count the same engine activity
// whether moves go through Reschedule or through Cancel + At. Explicit
// cancels are frequent enough to trigger compactions, so moves of entries
// whose positions a compaction rewrote are exercised. On the timing wheel
// Reschedule is Cancel + At exactly: every stat and trace record matches.
func TestRescheduleMatchesCancelAt(t *testing.T) {
	for _, queue := range []string{"heap", "wheel"} {
		var compactions uint64
		for seed := int64(0); seed < 40; seed++ {
			ops := randomRescheduleOps(rand.New(rand.NewSource(seed)), 1500)
			drivers := [2]*rescheduleDriver{{s: New(), inPlace: true}, {s: New()}}
			for _, d := range drivers {
				d.s.SetTracer(d)
				if queue == "wheel" {
					d.s.UseWheel(0.25)
				}
			}
			got, ref := drivers[0], drivers[1]
			for i, op := range ops {
				got.apply(op)
				ref.apply(op)
				if queue == "heap" {
					checkHeap(t, got.s)
				}
				if got.s.Now() != ref.s.Now() {
					t.Fatalf("%s seed %d op %d: clock %g, reference %g", queue, seed, i, got.s.Now(), ref.s.Now())
				}
				for k := range got.hs {
					if got.hs[k].Pending() != ref.hs[k].Pending() {
						t.Fatalf("%s seed %d op %d: handle %d pending %v, reference %v",
							queue, seed, i, k, got.hs[k].Pending(), ref.hs[k].Pending())
					}
				}
			}
			got.s.RunAll()
			ref.s.RunAll()
			if len(got.fired) != len(ref.fired) {
				t.Fatalf("%s seed %d: fired %d events, reference %d", queue, seed, len(got.fired), len(ref.fired))
			}
			for i := range got.fired {
				if got.fired[i] != ref.fired[i] {
					t.Fatalf("%s seed %d: firing %d is %+v, reference %+v", queue, seed, i, got.fired[i], ref.fired[i])
				}
			}
			gs, rs := got.s.Stats(), ref.s.Stats()
			if gs.Scheduled != rs.Scheduled || gs.Fired != rs.Fired || gs.Cancelled != rs.Cancelled {
				t.Fatalf("%s seed %d: scheduled/fired/cancelled %d/%d/%d, reference %d/%d/%d",
					queue, seed, gs.Scheduled, gs.Fired, gs.Cancelled, rs.Scheduled, rs.Fired, rs.Cancelled)
			}
			gt, rt := got.trace, ref.trace
			if queue == "heap" {
				// In-place moves leave no dead entries, so the heap
				// compacts less often; every other record must match.
				gt, rt = withoutCompactions(gt), withoutCompactions(rt)
			} else if gs != rs {
				t.Fatalf("wheel seed %d: stats %+v, reference %+v", seed, gs, rs)
			}
			if len(gt) != len(rt) {
				t.Fatalf("%s seed %d: %d trace records, reference %d", queue, seed, len(gt), len(rt))
			}
			for i := range gt {
				if gt[i] != rt[i] {
					t.Fatalf("%s seed %d: trace record %d is %+v, reference %+v", queue, seed, i, gt[i], rt[i])
				}
			}
			compactions += gs.Compactions
		}
		if compactions == 0 {
			t.Fatalf("%s: no sequence compacted; the cancel mix no longer exercises positions after compaction", queue)
		}
	}
}

// TestRescheduleNoAllocs pins the station pattern — every pending event
// moved in turn — at zero allocations in steady state.
func TestRescheduleNoAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	hs := make([]Handle, 32)
	for i := range hs {
		hs[i] = s.After(Time(i%7)+1, fn)
	}
	k := 0
	avg := testing.AllocsPerRun(1000, func() {
		for i := range hs {
			k++
			hs[i] = s.Reschedule(hs[i], s.Now()+Time(k%11)+1, fn)
		}
	})
	if avg != 0 {
		t.Fatalf("Reschedule allocates %.2f allocs per round", avg)
	}
}
