package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/erlang"
	"repro/internal/pool"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Shares of --seconds spent in the fixed phases of a serving run; the
// nominal phase and the ladder steps take the shares workloads.json sets.
const (
	serveWarmupShare = 0.05
	traceHalfShare   = 0.3 // each of the untraced and traced halves of a --trace 1 run
)

const (
	hdrTrace = "X-Perfbench-Trace"
	hdrSpan  = "X-Perfbench-Span"
)

// service is the capacity-planning service behind a real loopback
// listener: serve.New → net/http, as cmd/consolidated runs it.
type service struct {
	srv     *serve.Server
	hs      *http.Server
	done    chan struct{}
	base    string
	handler *tracedHandler // nil unless the run is traced
}

// startService builds the service and starts serving; ready waits until
// it answers /readyz.
func startService(nproc int, traced bool) (*service, error) {
	p, err := pool.New(nproc)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Pool: p})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	var h http.Handler = srv
	if traced {
		s.handler = &tracedHandler{next: srv}
		h = s.handler
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *service) ready() error {
	probe := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	defer probe.CloseIdleConnections()
	resp, err := probe.Get(s.base + "/readyz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/readyz answered %d", resp.StatusCode)
	}
	return nil
}

func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	return err
}

// tracedHandler is the benchmark's span-recording wrapper around
// Server.ServeHTTP. The generator passes its request span in headers, so
// client and handler spans of one request share a trace.
type tracedHandler struct {
	next http.Handler
	tr   atomic.Pointer[Tracer]
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil {
		t.next.ServeHTTP(w, r)
		return
	}
	trace, _ := strconv.ParseUint(r.Header.Get(hdrTrace), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
	sp := tr.Begin("serve.ServeHTTP", trace, parent)
	t.next.ServeHTTP(w, r)
	tr.End(sp)
}

// client is the load generator's HTTP side: at most nproc connections,
// one response buffer per sender.
type client struct {
	hc   *http.Client
	base string
	bufs []*bytes.Buffer
	tr   atomic.Pointer[Tracer]
}

func newClient(base string, senders int) *client {
	t := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	c := &client{hc: &http.Client{Transport: t, Timeout: 60 * time.Second}, base: base}
	for i := 0; i < senders; i++ {
		c.bufs = append(c.bufs, &bytes.Buffer{})
	}
	return c
}

func (c *client) do(w int, op *serveOp, trace uint64) (int, []byte, error) {
	var body io.Reader
	if op.body != nil {
		body = bytes.NewReader(op.body)
	}
	req, err := http.NewRequest(op.method, c.base+op.path, body)
	if err != nil {
		return 0, nil, err
	}
	if op.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	tr := c.tr.Load()
	var sp Span
	if tr != nil {
		sp = tr.Begin("gen.request", trace, 0)
		req.Header.Set(hdrTrace, strconv.FormatUint(trace, 10))
		req.Header.Set(hdrSpan, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	buf := c.bufs[w]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if tr != nil {
		tr.End(sp)
	}
	return resp.StatusCode, buf.Bytes(), err
}

// serveOp is one request of a serving workload with its oracle.
type serveOp struct {
	route  string // servers, loss, batch or plan
	kind   string // plan request kind; "" for queries
	method string
	path   string
	body   []byte
	check  func(status int, body []byte) error

	// queries are the Erlang questions a query request asks.
	queries []serve.Query
}

// phaseRun is one dispatched open-loop phase.
type phaseRun struct {
	ops      []*serveOp
	outs     []Outcome
	statuses []int
}

type serveRun struct {
	e   *env
	rep *report
	gen *opGen
	svc *service
	cl  *client
}

// runServe runs a serving workload: set-up timing, warmup, then rounds of
// an open-loop nominal phase, one in-process pass of the wall batch and
// ladder probes; or, with --trace 1, an untraced and a traced nominal
// phase plus the direct layer passes.
func runServe(e *env) (*report, error) {
	p := e.params
	w := &serveRun{e: e, rep: newReport()}
	gen, err := newOpGen(e)
	if err != nil {
		return nil, err
	}
	w.gen = gen

	// A set-up starts a service, checks that it is ready and closes it;
	// the timed part is serve.New through the serving goroutine's start.
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		svc, err := startService(e.nproc, false)
		if err != nil {
			return 0, fmt.Errorf("starting the service: %w", err)
		}
		d := time.Since(t0)
		err = svc.ready()
		if cerr := svc.close(); err == nil {
			err = cerr
		}
		return d, err
	}
	sl := newSpeedLog(e.nproc)
	setups, err := timeSetups(nil, setup)
	if err != nil {
		return nil, err
	}
	if w.svc, err = startService(e.nproc, e.trace); err != nil {
		return nil, fmt.Errorf("starting the service: %w", err)
	}
	defer w.svc.close()
	if err := w.svc.ready(); err != nil {
		return nil, fmt.Errorf("service not ready: %w", err)
	}
	w.cl = newClient(w.svc.base, e.nproc)
	defer w.cl.hc.CloseIdleConnections()

	w.phase("warmup", p.NominalRPS, e.budget(serveWarmupShare))
	if e.trace {
		return w.traced()
	}

	// The nominal phase runs in rounds spread over the run, each followed
	// by one repetition of the wall batch, a set-up block and a share of
	// the ladder probes, so every metric samples the host's quiet and noisy
	// stretches alike. Latencies are percentiles of all nominal requests,
	// each scaled by the same percentile of all echo requests (echo.go);
	// wall and CPU time are the median pass over all rounds, scaled by the
	// run's calibrations (calib.go), as is setup_s.
	rounds := max(p.Rounds, 1)
	echo, err := startEcho(e.nproc)
	if err != nil {
		return nil, fmt.Errorf("starting the echo probe: %w", err)
	}
	defer echo.close()
	var echoMs []float64
	echoPhase := func(r int) error {
		dues := schedule(e.seed, fmt.Sprintf("echo-%d", r), p.NominalRPS, e.budget(p.EchoShare/float64(rounds+1)), p.MeanRequests, seconds(p.ThinkMs/1000))
		lat, err := echo.phase(dues)
		echoMs = append(echoMs, lat...)
		return err
	}
	batch := w.wallOps()
	st := w.newStaircase()
	var p50s, roundWalls, all, walls, cpus []float64
	mix := map[string]int{}
	for r := 0; r < rounds; r++ {
		if err := echoPhase(r); err != nil {
			return nil, err
		}
		nom := w.phase(fmt.Sprintf("nominal-%d", r), p.NominalRPS, e.budget(p.NominalShare/float64(rounds)))
		lat := latencies(nom)
		p50s = append(p50s, median(lat))
		all = append(all, lat...)
		for k, v := range mixCounts(nom.ops) {
			mix[k] += v
		}
		// The kernel runs right before and after the passes, so it meets
		// the host as they do.
		sl.mark()
		pw, pc := w.handlerRep(batch)
		sl.mark()
		walls, cpus = append(walls, pw...), append(cpus, pc...)
		roundWalls = append(roundWalls, median(pw))
		if setups, err = timeSetups(setups, setup); err != nil {
			return nil, err
		}
		for i := 0; i < p.LadderProbes/rounds; i++ {
			st.probe()
		}
	}
	if err := echoPhase(rounds); err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	maxRate := st.maxRate()
	echoP50 := median(echoMs)
	echoTail, _ := percentile(echoMs, p.TailPercentile)
	p50 := median(all) / (echoP50 / echoRefP50Ms)
	tail, beyond, err := tailPercentile(all, p.TailPercentile)
	if err != nil {
		return nil, fmt.Errorf("nominal phase: %w", err)
	}
	tail /= echoTail / echoRefTailMs

	w.rep.set("setup_s", median(setups)/sl.factor())
	w.rep.set("latency_p50_ms", p50)
	w.rep.set("latency_tail_ms", tail)
	w.rep.set("max_rate_rps", maxRate)
	w.rep.set("wall_s", median(walls)/sl.factor())
	w.rep.set("cpu_s", median(cpus)/sl.cpuFactor())
	w.rep.set("mem_peak_mb", rss)
	pcts := map[string]float64{}
	for _, q := range []float64{50, 75, 90, 95, 99, 99.9} {
		v, _ := percentile(all, q)
		pcts[fmtF(q)] = v
	}
	w.rep.details["echo_ms"] = map[string]float64{"50": echoP50, fmtF(p.TailPercentile): echoTail}
	w.rep.details["echo_requests"] = len(echoMs)
	w.rep.details["calibration_s"] = sl.times
	w.rep.details["calibration_cpu_s"] = sl.cpus
	w.rep.details["raw_nominal_percentiles_ms"] = pcts
	w.rep.details["raw_wall_s"] = median(walls)
	w.rep.details["raw_cpu_s"] = median(cpus)
	w.rep.details["round_p50_ms"] = p50s
	w.rep.details["round_median_pass_wall_s"] = roundWalls
	w.rep.details["setup_samples_s"] = setups
	w.rep.details["tail_percentile"] = p.TailPercentile
	w.rep.details["tail_samples_beyond"] = beyond
	w.rep.details["nominal_requests"] = len(all)
	w.rep.details["nominal_mix"] = mix
	snap := w.svc.srv.Registry().Snapshot()
	w.rep.details["memo_rhos"] = snap.Gauges["serve/memo_rhos"]
	w.rep.details["memo_fallbacks"] = snap.Counters["serve/memo_fallbacks"]
	return w.rep, nil
}

// phase draws and dispatches one open-loop phase at rate for dur.
func (w *serveRun) phase(label string, rate float64, dur time.Duration) phaseRun {
	p := w.e.params
	dues := schedule(w.e.seed, label, rate, dur, p.MeanRequests, seconds(p.ThinkMs/1000))
	ops := w.gen.draw(label, len(dues))
	statuses := make([]int, len(ops))
	outs := runOpenLoop(dues, w.e.nproc, func(wk, i int) error {
		status, err := w.exec(wk, ops[i], uint64(i+1))
		statuses[i] = status
		return err
	})
	pr := phaseRun{ops: ops, outs: outs, statuses: statuses}
	w.rep.tally(outs)
	return pr
}

func (w *serveRun) exec(wk int, op *serveOp, trace uint64) (int, error) {
	status, body, err := w.cl.do(wk, op, trace)
	if err != nil {
		return status, fmt.Errorf("%s %s: %w", op.method, op.path, err)
	}
	if err := op.check(status, body); err != nil {
		return status, fmt.Errorf("%s %s (%s): %w", op.method, op.path, op.kind, err)
	}
	return status, nil
}

// latencies returns every request's latency from its due time, in ms.
func latencies(pr phaseRun) []float64 {
	lat := make([]float64, len(pr.outs))
	for i, o := range pr.outs {
		lat[i] = ms(o.Latency)
	}
	return lat
}

// wallOps is the fixed closed-loop batch of wall_batch_requests drawn
// requests.
func (w *serveRun) wallOps() []*serveOp {
	return w.gen.draw("wallbatch", w.e.params.WallBatchRequests)
}

// handlerRep answers ops wall_batch_passes times over through
// Server.ServeHTTP without the network, from nproc goroutines that take
// the requests one at a time, and returns the wall and process CPU
// seconds each pass took. Using every core, as the service does, keeps a
// pass from timing whichever one core of an unevenly loaded host its
// goroutine happened to run on, and taking requests as they come, as a
// server does, lets the faster core answer more of them, as the
// calibration kernel's goroutines share its chunks. The first pass's
// answers are checked after the clocks stop.
func (w *serveRun) handlerRep(ops []*serveOp) (walls, cpus []float64) {
	reqs := make([]*http.Request, len(ops))
	for i, op := range ops {
		req, err := http.NewRequest(op.method, "http://perfbench"+op.path, nil)
		if err != nil {
			panic(err)
		}
		reqs[i] = req
	}
	statuses := make([]int, len(ops))
	bodies := make([][]byte, len(ops))
	workers := w.e.nproc
	// Start from a collected heap, so the garbage earlier phases left
	// behind does not decide how much collection the repetition pays for.
	runtime.GC()
	passes := max(w.e.params.WallBatchPasses, 1)
	for pass := 0; pass < passes; pass++ {
		c0, t0 := cpuSeconds(), time.Now()
		var wg sync.WaitGroup
		var next atomic.Int64
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rw := &bufWriter{h: http.Header{}}
				for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
					if b := ops[i].body; b != nil {
						reqs[i].Body = io.NopCloser(bytes.NewReader(b))
					}
					rw.reset()
					w.svc.srv.ServeHTTP(rw, reqs[i])
					if pass == 0 {
						statuses[i] = rw.status
						bodies[i] = append(bodies[i], rw.buf.Bytes()...)
					}
				}
			}()
		}
		wg.Wait()
		walls, cpus = append(walls, time.Since(t0).Seconds()), append(cpus, cpuSeconds()-c0)
	}
	errs := make([]error, len(ops))
	for i, op := range ops {
		if err := op.check(statuses[i], bodies[i]); err != nil {
			errs[i] = fmt.Errorf("%s %s (handler): %w", op.method, op.path, err)
		}
	}
	w.rep.tallyErrs(errs)
	w.rep.attempted += (passes - 1) * len(ops)
	return walls, cpus
}

// bufWriter is a reusable in-memory http.ResponseWriter.
type bufWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (b *bufWriter) Header() http.Header { return b.h }

func (b *bufWriter) WriteHeader(status int) {
	if b.status == 0 {
		b.status = status
	}
}

func (b *bufWriter) Write(p []byte) (int, error) {
	b.WriteHeader(http.StatusOK)
	return b.buf.Write(p)
}

func (b *bufWriter) reset() {
	clear(b.h)
	b.status = 0
	b.buf.Reset()
}

// staircase probes the workload's fixed rate ladder: each probe runs
// one open-loop step at the current rung and moves up a rung when it
// passes, down when it fails. A probe passes when its tail latency meets
// the limit, nothing fails and the generator's lateness does not grow.
// Probes are spread over the run, so the walk samples the host's good and
// bad stretches alike.
type staircase struct {
	w       *serveRun
	idx     int
	passes  map[int]int
	fails   map[int]int
	offered map[int][]float64 // realized request rates of passing probes, by rung
	steps   []map[string]any
}

func (w *serveRun) newStaircase() *staircase {
	return &staircase{w: w, idx: w.e.params.LadderStart, passes: map[int]int{}, fails: map[int]int{}, offered: map[int][]float64{}}
}

func (st *staircase) probe() {
	w, p := st.w, st.w.e.params
	rate, dur := p.LadderRPS[st.idx], w.e.budget(p.StepShare)
	pr := w.phase(fmt.Sprintf("ladder-%d-%d", len(st.steps), st.idx), rate, dur)
	tail, _ := percentile(latencies(pr), p.TailPercentile)
	failed := 0
	for _, o := range pr.outs {
		if o.Err != nil {
			failed++
		}
	}
	backlog := growingLateness(pr.outs, p.LatencyLimitMs)
	pass := tail <= p.LatencyLimitMs && failed == 0 && !backlog
	st.steps = append(st.steps, map[string]any{"rps": rate, "tail_ms": tail, "failed": failed, "backlog": backlog, "pass": pass, "requests": len(pr.ops)})
	if pass {
		st.passes[st.idx]++
		st.offered[st.idx] = append(st.offered[st.idx], float64(len(pr.ops))/dur.Seconds())
		st.idx = min(st.idx+1, len(p.LadderRPS)-1)
		return
	}
	st.fails[st.idx]++
	st.idx = max(st.idx-1, 0)
}

// maxRate finds the highest rung that passed at least one probe and at
// least as many probes as it failed, and returns the request rate its
// passing probes' schedules actually offered (0 if no rung qualifies).
func (st *staircase) maxRate() float64 {
	st.w.rep.details["ladder"] = st.steps
	for i := len(st.w.e.params.LadderRPS) - 1; i >= 0; i-- {
		if st.passes[i] > 0 && st.passes[i] >= st.fails[i] {
			st.w.rep.details["max_rate_rung_rps"] = st.w.e.params.LadderRPS[i]
			return median(st.offered[i])
		}
	}
	return 0
}

// growingLateness reports a backlog: the generator's median lateness over
// the last quarter of the step exceeds the first quarter's by more than
// half the latency limit.
func growingLateness(outs []Outcome, limitMs float64) bool {
	q := len(outs) / 4
	if q == 0 {
		return false
	}
	late := func(os []Outcome) float64 {
		xs := make([]float64, len(os))
		for i, o := range os {
			xs[i] = ms(o.Lateness)
		}
		return median(xs)
	}
	return late(outs[len(outs)-q:]) > late(outs[:q])+limitMs/2
}

func mixCounts(ops []*serveOp) map[string]int {
	m := map[string]int{}
	for _, op := range ops {
		k := op.route
		if op.kind != "" {
			k += "/" + op.kind
		}
		m[k]++
	}
	return m
}

// opGen draws a workload's requests and precomputes their oracles.
type opGen struct {
	e       *env
	weights []int
	plans   []*serveOp // one per (plan kind, rate factor)
	sizings map[[2]float64]sizing
	losses  map[lossKey]float64
	traffic map[[2]float64]float64
}

type sizing struct {
	n    int
	loss float64
}

type lossKey struct {
	n   int
	rho float64
}

func newOpGen(e *env) (*opGen, error) {
	g := &opGen{e: e, sizings: map[[2]float64]sizing{}, losses: map[lossKey]float64{}, traffic: map[[2]float64]float64{}}
	for _, t := range e.params.Targets {
		g.weights = append(g.weights, t.Weight)
	}
	if len(e.params.PlanKinds) > 0 {
		plans, err := planOps(e.root, e.params)
		if err != nil {
			return nil, err
		}
		g.plans = plans
	}
	return g, nil
}

// draw returns n query requests drawn from the seed's stream for label.
func (g *opGen) draw(label string, n int) []*serveOp {
	s := stats.NewStream(g.e.seed, "perfbench/ops/"+label)
	ops := make([]*serveOp, n)
	for i := range ops {
		ops[i] = g.query(s)
	}
	return ops
}

// query draws one request template by weight; a fresh_rho_share of them
// ask about a fresh traffic value drawn from the stream instead of the
// template's, so the memo grows a new table for it.
func (g *opGen) query(s *stats.Stream) *serveOp {
	t := g.e.params.Targets[pickWeighted(s, g.weights)]
	fresh := 0.0
	if s.Float64() < g.e.params.FreshRhoShare {
		fresh = math.Round((1+s.Float64()*1499)*1000) / 1000
	}
	qs := make([]serve.Query, len(t.Queries))
	wants := make([]serve.QueryResult, len(t.Queries))
	for i, q := range t.Queries {
		if fresh > 0 && q.Rho > 0 {
			if q.N > 0 {
				q.N = max(1, int(math.Round(float64(q.N)*fresh/q.Rho)))
			}
			q.Rho = fresh
		}
		qs[i], wants[i] = q, g.answer(q)
	}
	op := &serveOp{route: t.Route, queries: qs, method: http.MethodGet}
	switch q := qs[0]; t.Route {
	case "servers":
		op.path = "/v1/servers?rho=" + fmtF(q.Rho) + "&target=" + fmtF(q.Target)
		op.check = checkServers(wants[0])
	case "loss":
		op.path = "/v1/loss?n=" + strconv.Itoa(q.N) + "&rho=" + fmtF(q.Rho)
		op.check = checkLoss(wants[0])
	case "batch":
		body, err := json.Marshal(serve.BatchRequest{Queries: qs})
		if err != nil {
			panic(err)
		}
		op.method, op.path, op.body, op.check = http.MethodPost, "/v1/batch", body, checkBatch(wants)
	default:
		panic("perfbench: unknown query route " + t.Route)
	}
	return op
}

// answer is the direct erlang.Servers/B/Traffic answer to one query.
func (g *opGen) answer(q serve.Query) serve.QueryResult {
	r := serve.QueryResult{Query: q}
	switch q.Kind {
	case "servers":
		sz := g.sizing(q.Rho, q.Target)
		r.Servers, r.Loss = &sz.n, &sz.loss
	case "loss":
		b := g.lossAt(q.N, q.Rho)
		r.Loss = &b
	case "traffic":
		rho := g.trafficAt(q.N, q.Target)
		r.Traffic = &rho
	default:
		panic("perfbench: unknown query kind " + q.Kind)
	}
	return r
}

func (g *opGen) sizing(rho, target float64) sizing {
	k := [2]float64{rho, target}
	if v, ok := g.sizings[k]; ok {
		return v
	}
	n, err := erlang.Servers(rho, target, 0)
	if err != nil {
		panic(fmt.Sprintf("oracle: Servers(%g, %g): %v", rho, target, err))
	}
	v := sizing{n: n, loss: g.lossAt(n, rho)}
	g.sizings[k] = v
	return v
}

func (g *opGen) lossAt(n int, rho float64) float64 {
	k := lossKey{n, rho}
	if v, ok := g.losses[k]; ok {
		return v
	}
	b, err := erlang.B(n, rho)
	if err != nil {
		panic(fmt.Sprintf("oracle: B(%d, %g): %v", n, rho, err))
	}
	g.losses[k] = b
	return b
}

func (g *opGen) trafficAt(n int, target float64) float64 {
	k := [2]float64{float64(n), target}
	if v, ok := g.traffic[k]; ok {
		return v
	}
	rho, err := erlang.Traffic(n, target)
	if err != nil {
		panic(fmt.Sprintf("oracle: Traffic(%d, %g): %v", n, target, err))
	}
	g.traffic[k] = rho
	return rho
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// The oracles compare each answer with a direct erlang.Servers/erlang.B
// call on the same inputs; floats must match bit for bit.

func checkServers(want serve.QueryResult) func(int, []byte) error {
	return func(status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %s", status, body)
		}
		var got struct {
			Rho, Target float64
			Servers     int
			Loss        float64
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Rho != want.Query.Rho || got.Target != want.Query.Target || got.Servers != *want.Servers || got.Loss != *want.Loss {
			return fmt.Errorf("answer %s, want servers=%d loss=%v", body, *want.Servers, *want.Loss)
		}
		return nil
	}
}

func checkLoss(want serve.QueryResult) func(int, []byte) error {
	return func(status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %s", status, body)
		}
		var got struct {
			N    int
			Rho  float64
			Loss float64
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.N != want.Query.N || got.Rho != want.Query.Rho || got.Loss != *want.Loss {
			return fmt.Errorf("answer %s, want loss=%v", body, *want.Loss)
		}
		return nil
	}
}

func checkBatch(wants []serve.QueryResult) func(int, []byte) error {
	return func(status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %s", status, body)
		}
		var got serve.BatchResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Results) != len(wants) {
			return fmt.Errorf("%d results, want %d", len(got.Results), len(wants))
		}
		for i, w := range wants {
			r := got.Results[i]
			if r.Error != nil || r.Query != w.Query || !sameFloat(r.Loss, w.Loss) || !sameFloat(r.Traffic, w.Traffic) ||
				(w.Servers != nil && (r.Servers == nil || *r.Servers != *w.Servers)) {
				return fmt.Errorf("result %d is %s, want %+v", i, body, w)
			}
		}
		return nil
	}
}

// sameFloat reports whether an answer carries exactly the wanted value,
// or is absent where none is wanted.
func sameFloat(got, want *float64) bool {
	if want == nil {
		return got == nil
	}
	return got != nil && *got == *want
}

// planFixture is one kind of plan request and the committed response it
// must reproduce at rate factor 1.
type planFixture struct {
	request string // path under the repository root
	golden  string // "" when no committed golden exists
	status  int
}

var planFixtures = map[string]planFixture{
	"hetero":      {"internal/serve/testdata/plan-request.json", "internal/serve/testdata/golden/plan.json", 200},
	"periods":     {"internal/serve/testdata/plan-periods-request.json", "internal/serve/testdata/golden/plan-periods.json", 200},
	"infeasible":  {"internal/serve/testdata/plan-infeasible-request.json", "internal/serve/testdata/golden/error-plan-infeasible.json", 422},
	"homogeneous": {"examples/scenarios/casestudy.json", "", 0},
}

func planKey(kind string, factor float64) string { return kind + "@" + fmtF(factor) }

// planBody returns the request body of one plan kind with every service's
// arrival rate scaled by factor. Factor 1 returns the fixture bytes
// unchanged. The homogeneous kind wraps the case-study scenario in a
// min-servers request.
func planBody(root, kind string, factor float64) ([]byte, error) {
	fx, ok := planFixtures[kind]
	if !ok {
		return nil, fmt.Errorf("unknown plan kind %q", kind)
	}
	raw, err := os.ReadFile(filepath.Join(root, fx.request))
	if err != nil {
		return nil, err
	}
	if kind == "homogeneous" {
		var sc bytes.Buffer
		if err := json.Compact(&sc, raw); err != nil {
			return nil, err
		}
		raw = []byte(`{"scenario":` + sc.String() + `,"target":0.05,"objective":"min-servers"}`)
	}
	if factor == 1 {
		return raw, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	sc, _ := doc["scenario"].(map[string]any)
	svcs, _ := sc["services"].([]any)
	for _, s := range svcs {
		arr, _ := s.(map[string]any)["arrivals"].(map[string]any)
		for _, k := range []string{"rate", "session_rate", "rate1"} {
			if n, ok := arr[k].(json.Number); ok {
				v, err := n.Float64()
				if err != nil {
					return nil, err
				}
				arr[k] = json.Number(fmtF(v * factor))
			}
		}
	}
	return json.Marshal(doc)
}

// planOps builds one request per (kind, factor), in the workload's kind
// order, with its oracle: the committed golden at factor 1 where one
// exists, else the recorded reference body digest.
func planOps(root string, p Params) ([]*serveOp, error) {
	var out []*serveOp
	for _, kind := range p.PlanKinds {
		for _, f := range p.RateFactors {
			body, err := planBody(root, kind, f)
			if err != nil {
				return nil, err
			}
			key := planKey(kind, f)
			op := &serveOp{route: "plan", kind: kind, method: http.MethodPost, path: "/v1/plan", body: body}
			fx := planFixtures[kind]
			if f == 1 && fx.golden != "" {
				golden, err := os.ReadFile(filepath.Join(root, fx.golden))
				if err != nil {
					return nil, err
				}
				op.check = checkBytes(fx.status, golden)
			} else {
				ref, ok := references.Plans[key]
				if !ok {
					return nil, fmt.Errorf("no recorded reference for plan request %s (run perfbench --record)", key)
				}
				op.check = checkDigest(ref)
			}
			out = append(out, op)
		}
	}
	return out, nil
}

func checkBytes(status int, want []byte) func(int, []byte) error {
	return func(got int, body []byte) error {
		if got != status || !bytes.Equal(body, want) {
			return fmt.Errorf("status %d body %.200s differs from the committed golden (status %d)", got, body, status)
		}
		return nil
	}
}

func checkDigest(ref BodyRef) func(int, []byte) error {
	return func(got int, body []byte) error {
		if got != ref.Status || digest(body) != ref.SHA256 {
			return fmt.Errorf("status %d body %.200s differs from the recorded reference (status %d)", got, body, ref.Status)
		}
		return nil
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
