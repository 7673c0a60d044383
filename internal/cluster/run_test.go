package cluster

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// flatSpec builds a minimal one-resource open-loop service: CPU work is
// exponential with mean 1/10 s, so offered load λ=5 keeps one reference
// server at utilization 0.5.
func flatSpec(arrivals workload.ArrivalProcess) ServiceSpec {
	return ServiceSpec{
		Profile: workload.ServiceProfile{
			Name: "flat",
			Demands: map[string]stats.Distribution{
				workload.CPU: stats.NewExponential(10),
			},
		},
		Arrivals:         arrivals,
		DedicatedServers: 1,
	}
}

// TestUtilizationScopedToWindow is the warmup-accounting regression test:
// utilization must describe the post-warmup window — the same interval loss
// and throughput are scoped to — not the whole run. The load is made
// asymmetric around the warmup boundary with a non-homogeneous Poisson
// process, so pre-fix accounting (all work over the whole horizon) lands
// near the 50/50 blend and fails both directions.
func TestUtilizationScopedToWindow(t *testing.T) {
	run := func(rates []float64) *Result {
		cfg := Config{
			Mode:     Dedicated,
			Services: []ServiceSpec{flatSpec(workload.NewNHPP(rates, 500, false))},
			Horizon:  1000,
			Warmup:   500,
			Seed:     17,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Busy warmup, idle window: only the in-flight residue at the boundary
	// drains inside the window, so utilization must be almost zero. The
	// broken accounting reported ≈0.25 (half the warmup's 0.5 load spread
	// over the doubled interval).
	idle := run([]float64{5, 0})
	if u := idle.Hosts[0].Bottleneck; u > 0.02 {
		t.Errorf("idle-window utilization %.4f, want ~0 (warmup work leaked in)", u)
	}
	if thr := idle.Services[0].Throughput; thr > 0.1 {
		t.Errorf("idle-window throughput %.4f, want ~0", thr)
	}

	// Idle warmup, busy window: utilization must reflect the window's full
	// 0.5 load; the broken accounting diluted it to ≈0.25.
	busy := run([]float64{0, 5})
	u := busy.Hosts[0].Bottleneck
	if u < 0.4 || u > 0.6 {
		t.Errorf("busy-window utilization %.4f, want ≈0.5 (diluted by idle warmup)", u)
	}
	// Utilization and throughput now describe the same interval:
	// u ≈ throughput × mean work per request (1/10 s).
	if thr := busy.Services[0].Throughput; stats.RelativeError(u, thr/10) > 0.1 {
		t.Errorf("utilization %.4f inconsistent with throughput %.4f over the window", u, thr)
	}
}

// TestPickHostSkipsDownHosts pins the round-robin dispatch order around a
// host failure: a down host is skipped without burning cursor positions, so
// the rotation among survivors is unperturbed, and the host rejoins at its
// slot after repair.
func TestPickHostSkipsDownHosts(t *testing.T) {
	hosts := []*host{{id: 0, up: true}, {id: 1, up: true}, {id: 2, up: true}}
	r := &runner{byService: [][]*host{hosts}, rrNext: make([]int, 1)}
	picks := func(n int) []int {
		var ids []int
		for i := 0; i < n; i++ {
			h := r.pickHost(0)
			if h == nil {
				ids = append(ids, -1)
				continue
			}
			ids = append(ids, h.id)
		}
		return ids
	}
	equal := func(got, want []int) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	if got := picks(4); !equal(got, []int{0, 1, 2, 0}) {
		t.Fatalf("healthy rotation %v", got)
	}
	hosts[1].up = false
	if got := picks(4); !equal(got, []int{2, 0, 2, 0}) {
		t.Fatalf("rotation with host 1 down: %v", got)
	}
	hosts[1].up = true
	if got := picks(3); !equal(got, []int{1, 2, 0}) {
		t.Fatalf("rotation after repair %v", got)
	}
	hosts[0].up, hosts[1].up, hosts[2].up = false, false, false
	if got := picks(2); !equal(got, []int{-1, -1}) {
		t.Fatalf("all-down pool returned %v", got)
	}
	if r.pickHost(0) != nil {
		t.Fatal("all-down pool yielded a host")
	}
}

// TestRunAllocsIndependentOfAdmissions: a run's allocations are set-up
// cost (hosts, stations, RNG streams, storage grown to the peak backlog),
// not per-request cost. Quadrupling the horizon of a sequential dedicated
// run with Poisson and session-train services roughly quadruples its
// admissions; the extra allocations must stay under 1% of the extra
// admissions, i.e. requests, jobRefs, events and pending session times are
// all recycled.
func TestRunAllocsIndependentOfAdmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-run allocation count")
	}
	measure := func(horizon float64) (allocs float64, admissions uint64) {
		allocs = testing.AllocsPerRun(2, func() {
			res, err := Run(Config{
				Mode: Dedicated,
				Services: []ServiceSpec{
					webSpec(1500, 2),
					{
						Profile:          workload.SPECwebEcommerce(),
						Arrivals:         workload.NewSessions(100, 8, stats.NewExponential(2)),
						DedicatedServers: 2,
					},
				},
				Horizon: horizon,
				Warmup:  1,
				Seed:    31,
			})
			if err != nil {
				t.Fatal(err)
			}
			admissions = res.Obs.Counters["cluster/admissions"]
		})
		return allocs, admissions
	}
	const h = 10
	a1, n1 := measure(h)
	a4, n4 := measure(4 * h)
	if n4 < 3*n1 {
		t.Fatalf("admissions %d at 4H vs %d at H: the longer run did not scale", n4, n1)
	}
	extra := float64(n4 - n1)
	if grow := a4 - a1; grow >= 0.01*extra {
		t.Fatalf("allocs grew %.0f (%.0f → %.0f) for %.0f extra admissions: the dispatch path allocates per request",
			grow, a1, a4, extra)
	}
	t.Logf("allocs %.0f at H (%d admissions), %.0f at 4H (%d admissions)", a1, n1, a4, n4)
}
