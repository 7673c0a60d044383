package cluster

import (
	"fmt"
	"testing"
)

// BenchmarkStationHighOccupancy measures one arrival→completion cycle at a
// station already holding k long-running jobs — the high-occupancy regime
// where the original implementation paid O(k) per event (scan-to-drain in
// advance, scan-for-min in reschedule, scan-to-collect in complete) and the
// virtual-time formulation pays O(log k). Each iteration admits one short
// job and runs the simulator until its completion event fires, drawing the
// request and its jobRef from an arena and recycling them as the runner
// does.
func BenchmarkStationHighOccupancy(b *testing.B) {
	for _, k := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			a := NewArena()
			sim := a.sim
			done := 0
			st := newStation(sim, "bench", 1, func(*request, *station) { done++ })
			st.arena = a
			for i := 0; i < k; i++ {
				st.add(&request{}, 1e15) // background jobs that never finish
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := a.getRequest()
				req.refs = append(req.refs, st.add(req, 1e-9))
				sim.Run(sim.Now() + 1)
				a.recycleRequest(req)
			}
			b.StopTimer()
			if done != b.N {
				b.Fatalf("completed %d of %d short jobs", done, b.N)
			}
		})
	}
}
