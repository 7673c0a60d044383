package desim

import "testing"

// BenchmarkDesimSchedule measures the schedule→fire round trip: each
// iteration schedules batchSize events at staggered times and drains them.
// The event arena must keep this path allocation-free in steady state (slot
// reuse through the free list; heap and arena capacity retained across
// iterations), so allocs/op reports 0.
func BenchmarkDesimSchedule(b *testing.B) {
	const batchSize = 64
	s := New()
	fn := func() {}
	// Prime the arena and heap so growth is excluded from the steady state.
	for k := 0; k < batchSize; k++ {
		s.After(Time(k%7)+1, fn)
	}
	s.RunAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < batchSize; k++ {
			s.After(Time(k%7)+1, fn)
		}
		s.RunAll()
	}
}

// BenchmarkTimingWheel compares the two event-queue implementations on a
// dense short-horizon mix (the cluster's think-time + service-completion
// pattern): many events land within a few ticks of now, a tail lands far
// out. Sub-benchmarks share the workload so heap vs wheel ns/op is a
// direct read of queue cost.
func BenchmarkTimingWheel(b *testing.B) {
	const batchSize = 256
	run := func(b *testing.B, s *Simulator) {
		fn := func() {}
		for k := 0; k < batchSize; k++ {
			s.After(Time(k%13)*0.5+0.1, fn)
		}
		s.RunAll()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < batchSize; k++ {
				d := Time(k%13)*0.5 + 0.1
				if k%64 == 0 {
					d = 5000 // sparse far tail
				}
				s.After(d, fn)
			}
			s.RunAll()
		}
	}
	b.Run("queue=heap", func(b *testing.B) { run(b, New()) })
	b.Run("queue=wheel", func(b *testing.B) {
		s := New()
		s.UseWheel(0.25)
		run(b, s)
	})
}

// BenchmarkDesimScheduleCancel measures the schedule→cancel→reap path:
// lazy deletion leaves the cancelled event queued until a later pop reaps
// it. BenchmarkDesimReschedule measures the in-place move that replaced
// this pattern on the cluster stations' hot path.
func BenchmarkDesimScheduleCancel(b *testing.B) {
	s := New()
	fn := func() {}
	tick := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := s.After(2, fn)
		h.Cancel()
		s.After(1, tick)
		s.RunAll() // fires tick, reaps the cancelled event
	}
}

// BenchmarkDesimReschedule measures the in-place move the cluster stations
// make on every admission: 32 pending events (a shard's live working set),
// each moved in turn to a new completion time. Each op is one Reschedule;
// the heap never holds a dead entry, so it stays at 0 allocs/op.
func BenchmarkDesimReschedule(b *testing.B) {
	const live = 32
	s := New()
	fn := func() {}
	hs := make([]Handle, live)
	for k := range hs {
		hs[k] = s.After(Time(k%7)+1, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % live
		hs[k] = s.Reschedule(hs[k], Time(i%13)*0.25+1, fn)
	}
}
