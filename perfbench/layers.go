package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/erlang"
	"repro/internal/eval"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// planPassReps is how often the plan pass repeats each distinct request.
const planPassReps = 3

// traced runs the --trace 1 serving phases: an untraced and a traced
// nominal phase (their latency ratio is the tracing overhead), then the
// direct layer passes.
func (w *serveRun) traced() (*report, error) {
	e, p, rep := w.e, w.e.params, w.rep
	untraced := w.phase("nominal-untraced", p.NominalRPS, e.budget(traceHalfShare))

	tr := newTracer()
	rep.tracer = tr
	w.svc.handler.tr.Store(tr)
	w.cl.tr.Store(tr)
	m0 := readMem()
	traced := w.phase("nominal-traced", p.NominalRPS, e.budget(traceHalfShare))
	dm := readMem().sub(m0)
	w.svc.handler.tr.Store(nil)
	w.cl.tr.Store(nil)

	rep.set("trace.overhead_ratio", median(latencies(traced))/median(latencies(untraced)))
	hand := tr.Durations("serve.ServeHTTP", time.Microsecond)
	rep.set("serve.handler_us_p50", median(hand))
	h99, _ := percentile(hand, 99)
	rep.set("serve.handler_us_p99", h99)
	rep.set("serve.rtt_us_p50", median(tr.Durations("gen.request", time.Microsecond)))
	n := float64(len(traced.ops))
	rep.set("serve.allocs_per_req", float64(dm.mallocs)/n)
	rep.set("serve.bytes_per_req", float64(dm.totalAlloc)/n)
	rep.details["serve.allocs_and_bytes"] = "process-wide (service, generator and runtime) over the traced phase, divided by its requests"
	routes := map[string]float64{}
	var s200, s422, sOther float64
	var lateness []float64
	countStatus := func(status int) {
		switch status {
		case 200:
			s200++
		case 422:
			s422++
		default:
			sOther++
		}
	}
	for i, op := range traced.ops {
		routes[op.route]++
		countStatus(traced.statuses[i])
		lateness = append(lateness, ms(traced.outs[i].Lateness))
	}
	late99, _ := percentile(lateness, 99)
	rep.set("gen.lateness_ms_p99", late99)
	setRuntime(rep, dm)

	snap := w.svc.srv.Registry().Snapshot()
	hits, misses := float64(snap.Counters["serve/memo_hits"]), float64(snap.Counters["serve/memo_misses"])
	rep.set("erlang.memo_hits", hits)
	rep.set("erlang.memo_misses", misses)
	rep.set("erlang.memo_fallbacks", float64(snap.Counters["serve/memo_fallbacks"]))
	rep.set("erlang.memo_rhos", snap.Gauges["serve/memo_rhos"])
	if hits+misses > 0 {
		rep.set("erlang.memo_hit_ratio", hits/(hits+misses))
	}
	rep.details["erlang.memo_counters"] = "cumulative over the whole run's requests"
	rep.set("erlang.servers_ns", memoPass(traced.ops))

	// The query workload carries no plans; its traced run still measures
	// the planning layers on the committed plan requests, first checked
	// over HTTP against their goldens.
	for _, op := range w.gen.plans {
		rep.attempted++
		status, err := w.exec(0, op, 0)
		if err != nil {
			rep.fail(err)
		}
		routes[op.route]++
		countStatus(status)
	}
	if err := planPass(rep, tr, w.gen.plans); err != nil {
		return nil, err
	}
	for _, r := range []string{"servers", "loss", "batch", "plan"} {
		rep.set("serve.requests."+r, routes[r])
	}
	rep.set("serve.status.200", s200)
	rep.set("serve.status.422", s422)
	rep.set("serve.status.other", sOther)
	return rep, nil
}

func setRuntime(rep *report, dm memSample) {
	rep.set("runtime.gc_cycles", float64(dm.numGC))
	rep.set("runtime.gc_pause_ms", float64(dm.pauseNs)/1e6)
	rep.set("runtime.alloc_mb", float64(dm.totalAlloc)/(1<<20))
}

// memoPass times Memo.Servers and Memo.B on the workload's own query set
// against a fresh memo preheated like the service's: one pass to warm the
// tables, then a timed pass. It returns nanoseconds per call.
func memoPass(ops []*serveOp) float64 {
	m := erlang.NewMemo(0, 0)
	if err := m.Preheat(serve.DefaultPreheatRhos, 1024); err != nil {
		return math.NaN()
	}
	var qs []serve.Query
	for _, op := range ops {
		qs = append(qs, op.queries...)
	}
	calls := 0
	ask := func() {
		for _, q := range qs {
			if q.Kind == "servers" {
				n, _ := m.Servers(q.Rho, q.Target)
				m.B(n, q.Rho)
				calls += 2
				continue
			}
			m.B(q.N, q.Rho)
			calls++
		}
	}
	ask()
	calls = 0
	t0 := time.Now()
	ask()
	if calls == 0 {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// tracedEvaluator is the benchmark's span-recording eval.Evaluator
// wrapper. It forwards SelfBudgeted and EvaluateBatch, so the planner
// takes the same paths through it as through the wrapped evaluator.
type tracedEvaluator struct {
	inner  eval.Evaluator
	tr     *Tracer
	parent atomic.Uint64
	trace  atomic.Uint64
	calls  atomic.Int64
	keep   atomic.Bool

	mu    sync.Mutex
	cands []scenario.Scenario
}

func (t *tracedEvaluator) Evaluate(ctx context.Context, s scenario.Scenario) (eval.Result, error) {
	sp := t.tr.Begin("eval.Evaluate", t.trace.Load(), t.parent.Load())
	r, err := t.inner.Evaluate(ctx, s)
	t.tr.End(sp)
	t.calls.Add(1)
	if t.keep.Load() {
		t.mu.Lock()
		t.cands = append(t.cands, s.Clone())
		t.mu.Unlock()
	}
	return r, err
}

func (t *tracedEvaluator) SelfBudgeted() bool {
	sb, ok := t.inner.(eval.SelfBudgeted)
	return ok && sb.SelfBudgeted()
}

func (t *tracedEvaluator) EvaluateBatch(ctx context.Context, cands []scenario.Scenario) ([]eval.Result, error) {
	if be, ok := t.inner.(eval.BatchEvaluator); ok {
		sp := t.tr.Begin("eval.EvaluateBatch", t.trace.Load(), t.parent.Load())
		defer t.tr.End(sp)
		return be.EvaluateBatch(ctx, cands)
	}
	out := make([]eval.Result, len(cands))
	for i := range cands {
		r, err := t.Evaluate(ctx, cands[i])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// planPass runs each plan request through scenario.ParseBytes and
// plan.Search/SearchPeriods directly, on a pool of size 1 with the
// span-recording evaluator, planPassReps times each.
func planPass(rep *report, tr *Tracer, ops []*serveOp) error {
	p1, err := pool.New(1)
	if err != nil {
		return err
	}
	tev := &tracedEvaluator{inner: eval.NewAnalytic(erlang.NewMemo(0, 0)), tr: tr}
	ctx := context.Background()
	byKind := map[string][]float64{}
	var parseUs []float64
	var evals0 float64
	var trace uint64 = 1 << 32 // apart from the request traces
	for _, op := range ops {
		var req serve.PlanRequest
		if err := json.Unmarshal(op.body, &req); err != nil {
			return err
		}
		t0 := time.Now()
		sc, err := scenario.ParseBytes(req.Scenario)
		parseUs = append(parseUs, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return fmt.Errorf("plan pass: %s: %w", op.kind, err)
		}
		spec := plan.Spec{Scenario: sc, Target: req.Target, Objective: req.Objective, Seed: req.Seed, MaxIters: req.MaxIters}
		for r := 0; r < planPassReps; r++ {
			trace++
			sp := tr.Begin("plan.Search", trace, 0)
			tev.parent.Store(sp.ID)
			tev.trace.Store(trace)
			tev.keep.Store(r == 0)
			var evals int
			if req.Periods != nil {
				pp, perr := plan.SearchPeriods(ctx, tev, p1, spec, req.Periods.MigrationCostWh)
				evals, err = pp.Evaluations, perr
			} else {
				pl, perr := plan.Search(ctx, tev, p1, spec)
				evals, err = pl.Evaluations, perr
			}
			sp = tr.End(sp)
			rep.attempted++
			switch {
			case op.kind == "infeasible" && errors.Is(err, plan.ErrInfeasible):
			case err != nil:
				rep.fail(fmt.Errorf("plan pass: %s: %w", op.kind, err))
			case op.kind == "infeasible":
				rep.fail(fmt.Errorf("plan pass: infeasible request planned"))
			}
			if op.kind != "infeasible" {
				byKind[op.kind] = append(byKind[op.kind], ms(sp.Dur()))
			}
			if r == 0 {
				evals0 += float64(evals)
			}
		}
	}
	for _, k := range []string{"hetero", "homogeneous", "periods"} {
		if xs := byKind[k]; len(xs) > 0 {
			rep.set("plan.search_ms_p50."+k, median(xs))
			v, _ := percentile(xs, 99)
			rep.set("plan.search_ms_p99."+k, v)
		}
	}
	if len(ops) > 0 {
		rep.set("plan.evaluations_per_req", evals0/float64(len(ops)))
	}
	rep.set("plan.self_ms", median(tr.SelfTimes("plan.Search", "eval.Evaluate", time.Millisecond)))
	rep.set("scenario.parse_us", median(parseUs))
	rep.set("eval.evaluate_us_p50", median(tr.Durations("eval.Evaluate", time.Microsecond)))
	rep.set("eval.calls", float64(tev.calls.Load()))
	rep.details["plan_pass"] = map[string]any{"requests": len(ops), "reps": planPassReps, "pool_size": 1}

	allocs, err := evalAllocs(tev.cands)
	if err != nil {
		return err
	}
	rep.set("eval.allocs_per_call", allocs)
	ns, calls, err := bcontinuousPass(tev.cands)
	if err != nil {
		return err
	}
	rep.set("erlang.bcontinuous_ns", ns)
	rep.set("erlang.bcontinuous_calls", float64(calls))
	return nil
}

// evalAllocs replays the recorded candidates sequentially through a fresh
// analytic evaluator (once to warm its memo, once measured) and returns
// heap allocations per Evaluate call.
func evalAllocs(cands []scenario.Scenario) (float64, error) {
	if len(cands) == 0 {
		return 0, nil
	}
	ev := eval.NewAnalytic(erlang.NewMemo(0, 0))
	ctx := context.Background()
	for _, c := range cands {
		ev.Evaluate(ctx, c)
	}
	m0 := readMem()
	for _, c := range cands {
		ev.Evaluate(ctx, c)
	}
	dm := readMem().sub(m0)
	return float64(dm.mallocs) / float64(len(cands)), nil
}

// bcontinuousPass recovers the (capability units, traffic) pairs the
// analytic evaluator prices with the continuous Erlang B — candidates
// whose fleet has fractional units — and times erlang.BContinuous on
// them. It returns nanoseconds per call and the call count.
func bcontinuousPass(cands []scenario.Scenario) (float64, int, error) {
	type pair struct{ units, rho float64 }
	var pairs []pair
	for _, c := range cands {
		s := c.Clone()
		s.ApplyDefaults()
		if s.Mode == "dedicated" {
			continue
		}
		resources, err := eval.ScenarioResources(s)
		if err != nil {
			return 0, 0, err
		}
		_, units := eval.FleetUnits(s, resources)
		if math.Abs(units-math.Round(units)) < 1e-9 {
			continue
		}
		m, err := eval.ModelFromScenario(s, 0.5)
		if err != nil {
			return 0, 0, err
		}
		for _, r := range resources {
			pairs = append(pairs, pair{units, m.ConsolidatedTraffic(core.Resource(r), m.Form)})
		}
	}
	if len(pairs) == 0 {
		return 0, 0, nil
	}
	t0 := time.Now()
	for _, p := range pairs {
		if _, err := erlang.BContinuous(p.units, p.rho); err != nil {
			return 0, 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(pairs)), len(pairs), nil
}
