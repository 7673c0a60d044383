package workload

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/stats"
)

func TestSessionsMeanRate(t *testing.T) {
	// 5 sessions/s x 4 requests/session = 20 req/s.
	p := NewSessions(5, 4, nil)
	if p.Rate() != 20 {
		t.Fatalf("rate = %g", p.Rate())
	}
	got := measureRate(p, 4000, 81)
	if stats.RelativeError(got, 20) > 0.05 {
		t.Fatalf("measured %g, want 20", got)
	}
	if p.String() == "" {
		t.Fatal("empty description")
	}
}

func TestSessionsSingleRequestIsPoisson(t *testing.T) {
	// MeanRequests = 1 degenerates to a plain Poisson process.
	p := NewSessions(10, 1, nil)
	got := measureRate(p, 3000, 83)
	if stats.RelativeError(got, 10) > 0.05 {
		t.Fatalf("measured %g, want 10", got)
	}
	// Count autocorrelation ~ 0 (no clustering).
	counts := windowCounts(NewSessions(10, 1, nil), 1.0, 3000, 84)
	if ac := stats.Autocorrelation(counts, 1); math.Abs(ac) > 0.1 {
		t.Fatalf("single-request sessions correlated: %g", ac)
	}
}

func TestSessionsBurstierThanPoisson(t *testing.T) {
	// Long sessions with short gaps cluster requests: count variance
	// exceeds the Poisson (variance = mean) level.
	gap := stats.NewExponential(2) // 0.5 s mean gap: tight trains
	counts := windowCounts(NewSessions(2, 10, gap), 1.0, 6000, 85)
	mean := stats.Mean(counts)
	variance := stats.Variance(counts)
	if stats.RelativeError(mean, 20) > 0.1 {
		t.Fatalf("mean count %g, want ~20", mean)
	}
	if variance < 1.5*mean {
		t.Fatalf("sessions not bursty: var=%g mean=%g", variance, mean)
	}
	// And positively autocorrelated across windows (sessions span them).
	if ac := stats.Autocorrelation(counts, 1); ac < 0.05 {
		t.Fatalf("session counts uncorrelated: %g", ac)
	}
}

func TestSessionsMonotoneClock(t *testing.T) {
	p := NewSessions(3, 6, nil)
	s := stats.NewStream(87, "sessions/monotone")
	for i := 0; i < 20000; i++ {
		if gap := p.Next(s); gap < 0 {
			t.Fatalf("negative inter-arrival %g at %d", gap, i)
		}
	}
}

func TestSessionsPanics(t *testing.T) {
	cases := []func(){
		func() { NewSessions(0, 2, nil) },
		func() { NewSessions(-1, 2, nil) },
		func() { NewSessions(1, 0.5, nil) },
		func() { NewSessions(1, math.NaN(), nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// windowCounts bins the arrival stream of p into fixed windows.
func windowCounts(p ArrivalProcess, window, horizon float64, seed uint64) []float64 {
	s := stats.NewStream(seed, "wc/"+p.String())
	counts := make([]float64, int(horizon/window))
	clock := 0.0
	for {
		clock += p.Next(s)
		if clock >= horizon {
			return counts
		}
		counts[int(clock/window)]++
	}
}

// refSessions is the session-train process on container/heap: the
// reference Sessions.Next's typed heap must reproduce draw for draw.
type refSessions struct {
	rate, mean float64
	gap        stats.Distribution
	pending    refHeap
	clock      float64
	nextArr    float64
}

type refHeap []float64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *refHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

func (p *refSessions) gapSample(s *stats.Stream) float64 {
	if p.gap != nil {
		return p.gap.Sample(s)
	}
	return s.ExpFloat64()
}

func (p *refSessions) next(s *stats.Stream) float64 {
	start := p.clock
	if p.nextArr == 0 {
		p.nextArr = p.clock + s.ExpFloat64()/p.rate
	}
	for p.pending.Len() == 0 || p.nextArr <= p.pending[0] {
		t := p.nextArr
		heap.Push(&p.pending, t)
		if p.mean != 1 {
			for s.Bernoulli(1 - 1/p.mean) {
				t += p.gapSample(s)
				heap.Push(&p.pending, t)
			}
		}
		p.nextArr += s.ExpFloat64() / p.rate
	}
	t := heap.Pop(&p.pending).(float64)
	if t < p.clock {
		t = p.clock
	}
	p.clock = t
	return p.clock - start
}

// TestSessionsMatchContainerHeap: for fixed seeds, Sessions.Next returns
// exactly the inter-arrival sequence of the container/heap reference —
// long trains that keep the heap deep, single-request sessions, and
// gap distributions with ties (deterministic gaps).
func TestSessionsMatchContainerHeap(t *testing.T) {
	cases := []struct {
		rate, mean float64
		gap        stats.Distribution
	}{
		{5, 4, nil},
		{10, 1, nil},
		{2, 50, stats.NewExponential(0.5)},
		{99.4, 10, stats.NewExponential(2)},
		{3, 8, stats.Deterministic{Value: 0.25}},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			got, want := NewSessions(c.rate, c.mean, c.gap), &refSessions{rate: c.rate, mean: c.mean, gap: c.gap}
			sg, sw := stats.NewStream(seed, "sessions/equiv"), stats.NewStream(seed, "sessions/equiv")
			for i := 0; i < 20000; i++ {
				if g, w := got.Next(sg), want.next(sw); g != w {
					t.Fatalf("rate=%g mean=%g seed=%d: draw %d = %v, reference %v", c.rate, c.mean, seed, i, g, w)
				}
			}
		}
	}
}
