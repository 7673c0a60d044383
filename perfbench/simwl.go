package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/replicate"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/sweep"
)

const (
	simMeasureShare  = 0.9
	simSampleEvery   = 2 * time.Millisecond
	sweepRefKeyShape = "%d/%d" // root seed / point index
)

// simBatch is one closed-loop batch of a simulation workload.
type simBatch struct {
	wall, cpu time.Duration
	latencies []float64 // per operation, ms
	ops       int
}

// simTotals accumulates batches and turns them into the end-to-end
// metrics: per-operation latency percentiles over all batches, the
// batches' median wall and CPU time, and completed operations per second,
// every time scaled to the reference host speed by sl.
type simTotals struct {
	batches []simBatch
	sl      *speedLog
}

func (t *simTotals) add(b simBatch) { t.batches = append(t.batches, b) }

func (t *simTotals) elapsed() time.Duration {
	var d time.Duration
	for _, b := range t.batches {
		d += b.wall
	}
	return d
}

func (t *simTotals) walls() []float64 {
	var xs []float64
	for _, b := range t.batches {
		xs = append(xs, b.wall.Seconds())
	}
	return xs
}

func (t *simTotals) report(rep *report, tailP float64, setups []float64) error {
	var lat, cpus []float64
	ops := 0
	for _, b := range t.batches {
		lat = append(lat, b.latencies...)
		cpus = append(cpus, b.cpu.Seconds())
		ops += b.ops
	}
	f, fc := t.sl.factor(), t.sl.cpuFactor()
	p50 := median(lat) / f
	tail, beyond, err := tailPercentile(lat, tailP)
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups)/f)
	rep.set("latency_p50_ms", p50)
	rep.set("latency_tail_ms", tail/f)
	rep.set("max_rate_rps", float64(ops)/t.elapsed().Seconds()*f)
	rep.set("wall_s", median(t.walls())/f)
	rep.set("cpu_s", median(cpus)/fc)
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	rep.set("mem_peak_mb", rss)
	rep.details["calibration_s"] = t.sl.times
	rep.details["calibration_cpu_s"] = t.sl.cpus
	rep.details["setup_samples_s"] = setups
	rep.details["batches"] = len(t.batches)
	rep.details["batch_wall_s"] = t.walls()
	rep.details["batch_cpu_s"] = cpus
	rep.details["raw_wall_s"] = median(t.walls())
	rep.details["raw_cpu_s"] = median(cpus)
	rep.details["latency_samples"] = len(lat)
	rep.details["tail_percentile"] = tailP
	rep.details["tail_samples_beyond"] = beyond
	return nil
}

// poolSampler samples a pool's occupancy until stopped.
type poolSampler struct {
	stop chan struct{}
	done chan struct{}
	busy float64
	n    int
}

func samplePool(p *pool.Pool) *poolSampler {
	s := &poolSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(simSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.busy += float64(p.Active()) / float64(p.Size())
				s.n++
			}
		}
	}()
	return s
}

// ratio stops the sampler, waits for it, and returns mean Active/Size.
func (s *poolSampler) ratio() float64 {
	close(s.stop)
	<-s.done
	if s.n == 0 {
		return 0
	}
	return s.busy / float64(s.n)
}

func setPool(rep *report, p *pool.Pool, busy float64) {
	rep.set("pool.peak_active", float64(p.Peak()))
	rep.set("pool.units_run", float64(p.Units()))
	rep.set("pool.busy_ratio", busy)
}

// ---- sim-sweep ----

// sweepGrid is one root seed's two passes: the cold grid and the grid with
// its outermost axis extended (same indices and seeds for the old points).
type sweepGrid struct {
	seed         uint64
	pass1, pass2 []sweep.Point
}

func buildGrid(data []byte, p Params, root uint64) (sweepGrid, error) {
	sp, err := sweep.ParseSpecBytes(data)
	if err != nil {
		return sweepGrid{}, err
	}
	sp.Base.Horizon = p.Horizon
	if sp.Base.Replication == nil {
		sp.Base.Replication = &scenario.Replication{}
	}
	sp.Base.Replication.Reps = p.Reps
	sp.Base.Seed = root
	g := sweepGrid{seed: root}
	if g.pass1, err = sp.Expand(); err != nil {
		return sweepGrid{}, err
	}
	if len(sp.Axes) == 0 || sp.Axes[0].Path != "fleet.hosts" {
		return sweepGrid{}, fmt.Errorf("sweep spec: outermost axis must be fleet.hosts")
	}
	for _, h := range p.ExtendHosts {
		sp.Axes[0].Values = append(sp.Axes[0].Values, float64(h))
	}
	if g.pass2, err = sp.Expand(); err != nil {
		return sweepGrid{}, err
	}
	return g, nil
}

type sweepRun struct {
	e     *env
	rep   *report
	grids []sweepGrid // in the seed's batch order
	pool  *pool.Pool
	tr    *Tracer
	regs  []*obs.Registry
	last  string // cache directory of the last batch, kept when asked
}

// runSweep runs batches of the two-pass grid, each against a fresh cache
// directory: pass 1 misses and stores every point, pass 2 serves the old
// points from the cache and runs the new ones. Every point is submitted at
// the pass's start as its own single-point RunPoints request on the shared
// pool, so its latency includes its wait for a pool slot.
func runSweep(e *env) (*report, error) {
	p := e.params
	data, err := os.ReadFile(filepath.Join(e.root, p.Spec))
	if err != nil {
		return nil, err
	}
	w := &sweepRun{e: e, rep: newReport()}
	if w.pool, err = pool.New(e.nproc); err != nil {
		return nil, err
	}

	// Every set-up opens the same cache directory, as a planner reopening
	// its store would; only the first creates it.
	dir := w.cacheDir("setup")
	defer os.RemoveAll(dir)
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		if _, err := buildGrid(data, p, p.RootSeeds[0]); err != nil {
			return 0, err
		}
		cache, err := sweep.OpenCache(dir)
		if err != nil {
			return 0, err
		}
		sweep.NewEngine(w.pool, cache, nil)
		return time.Since(t0), nil
	}
	sl := newSpeedLog(e.nproc)
	setups, err := timeSetups(nil, setup)
	if err != nil {
		return nil, err
	}
	for _, i := range stats.NewStream(e.seed, "perfbench/sweep-order").Perm(len(p.RootSeeds)) {
		g, err := buildGrid(data, p, p.RootSeeds[i])
		if err != nil {
			return nil, err
		}
		w.grids = append(w.grids, g)
	}

	if e.trace {
		return w.traced()
	}
	tot := simTotals{sl: sl}
	for k := 0; k == 0 || tot.elapsed() < e.budget(simMeasureShare); k++ {
		sl.mark()
		b, err := w.batch(k, false)
		if err != nil {
			return nil, err
		}
		tot.add(b)
		if setups, err = timeSetups(setups, setup); err != nil {
			return nil, err
		}
	}
	sl.mark()
	if err := tot.report(w.rep, p.TailPercentile, setups); err != nil {
		return nil, err
	}
	return w.rep, nil
}

func (w *sweepRun) cacheDir(name string) string {
	return filepath.Join(w.e.outDir, "sweepcache", fmt.Sprintf("%d-%s", os.Getpid(), name))
}

// batch runs both passes of grid k mod len(grids) against a fresh cache.
func (w *sweepRun) batch(k int, keep bool) (simBatch, error) {
	g := w.grids[k%len(w.grids)]
	dir := w.cacheDir(fmt.Sprintf("batch-%d", k))
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		return simBatch{}, err
	}
	reg := obs.NewRegistry()
	w.regs = append(w.regs, reg)
	eng := sweep.NewEngine(w.pool, cache, reg)
	c0, t0 := cpuSeconds(), time.Now()
	lat1 := w.pass(eng, g, g.pass1, uint64(k)*2+1)
	lat2 := w.pass(eng, g, g.pass2, uint64(k)*2+2)
	b := simBatch{wall: time.Since(t0), cpu: seconds(cpuSeconds() - c0),
		latencies: append(lat1, lat2...), ops: len(g.pass1) + len(g.pass2)}
	if keep {
		w.last = dir
	} else {
		os.RemoveAll(dir)
	}
	return b, nil
}

// pass submits every point at once and returns each point's latency from
// the pass start, in ms. Wrong or failed points count in the report.
func (w *sweepRun) pass(eng *sweep.Engine, g sweepGrid, points []sweep.Point, trace uint64) []float64 {
	start := time.Now()
	lat := make([]float64, len(points))
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for i, pt := range points {
		wg.Add(1)
		go func(i int, pt sweep.Point) {
			defer wg.Done()
			one := pt
			one.Index = 0
			sp := w.tr.Begin("sweep.RunPoints", trace, 0)
			res, err := eng.RunPoints(context.Background(), []sweep.Point{one})
			w.tr.End(sp)
			lat[i] = ms(time.Since(start))
			if err != nil {
				errs[i] = fmt.Errorf("point %d (%s): %w", pt.Index, pt.Label, err)
				return
			}
			errs[i] = checkPoint(g.seed, pt.Index, res[0])
		}(i, pt)
	}
	wg.Wait()
	w.rep.tallyErrs(errs)
	return lat
}

func pointDigest(pr sweep.PointResult) (string, error) {
	b, err := json.Marshal(pr)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

func checkPoint(seed uint64, index int, pr sweep.PointResult) error {
	got, err := pointDigest(pr)
	if err != nil {
		return err
	}
	key := fmt.Sprintf(sweepRefKeyShape, seed, index)
	want, ok := references.SweepPoints[key]
	if !ok {
		return fmt.Errorf("no recorded reference for sweep point %s", key)
	}
	if got != want {
		return fmt.Errorf("sweep point %s summary differs from the recorded reference", key)
	}
	return nil
}

// traced runs untraced and traced batches (their median wall ratio is the
// tracing overhead), then the cache and replication layer passes.
func (w *sweepRun) traced() (*report, error) {
	e, rep := w.e, w.rep
	var untraced, traced simTotals
	for k := 0; k == 0 || untraced.elapsed() < e.budget(traceHalfShare); k++ {
		b, err := w.batch(k, false)
		if err != nil {
			return nil, err
		}
		untraced.add(b)
	}

	// A fresh pool, so its counters cover the traced batches only.
	var err error
	if w.pool, err = pool.New(e.nproc); err != nil {
		return nil, err
	}
	w.tr = newTracer()
	rep.tracer = w.tr
	w.regs = nil
	sampler := samplePool(w.pool)
	m0 := readMem()
	k := 0
	for ; k == 0 || traced.elapsed() < e.budget(traceHalfShare); k++ {
		b, err := w.batch(k, false)
		if err != nil {
			sampler.ratio()
			return nil, err
		}
		traced.add(b)
	}
	dm := readMem().sub(m0)
	setPool(rep, w.pool, sampler.ratio())
	setRuntime(rep, dm)
	rep.set("trace.overhead_ratio", median(traced.walls())/median(untraced.walls()))

	var hits, misses, writeErrs, points float64
	for _, reg := range w.regs {
		s := reg.Snapshot()
		hits += float64(s.Counters["sweep/cache_hits"])
		misses += float64(s.Counters["sweep/cache_misses"])
		writeErrs += float64(s.Counters["sweep/cache_write_errors"])
		points += float64(s.Counters["sweep/points_done"])
	}
	rep.set("sweep.points", points)
	rep.set("sweep.cache_hits", hits)
	rep.set("sweep.cache_misses", misses)
	rep.set("sweep.cache_write_errors", writeErrs)
	if hits+misses > 0 {
		rep.set("sweep.cache_hit_ratio", hits/(hits+misses))
	}

	// One more batch on the first grid, keeping its cache for the
	// Get/Put pass; then the replication pass over the same grid.
	if _, err := w.batch(len(w.grids)*k, true); err != nil {
		return nil, err
	}
	defer os.RemoveAll(w.last)
	if err := w.cachePass(w.grids[0]); err != nil {
		return nil, err
	}
	return rep, w.replicatePass(w.grids[0])
}

// cachePass times Cache.Get on every point of the kept cache (all must
// hit and match) and Cache.Put of the same summaries into a fresh cache.
func (w *sweepRun) cachePass(g sweepGrid) error {
	src, err := sweep.OpenCache(w.last)
	if err != nil {
		return err
	}
	putDir := w.cacheDir("put")
	defer os.RemoveAll(putDir)
	dst, err := sweep.OpenCache(putDir)
	if err != nil {
		return err
	}
	var gets, puts []float64
	for _, pt := range g.pass2 {
		key, err := sweep.PointKey(pt.Scenario)
		if err != nil {
			return err
		}
		var pr sweep.PointResult
		t0 := time.Now()
		ok := src.Get(key, &pr)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		w.rep.attempted++
		if !ok {
			w.rep.fail(fmt.Errorf("cache pass: point %d missing from the cache", pt.Index))
			continue
		}
		if err := checkPoint(g.seed, pt.Index, pr); err != nil {
			w.rep.fail(err)
		}
		t0 = time.Now()
		err = dst.Put(key, pr)
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
	}
	w.rep.set("sweep.cache_get_us", median(gets))
	w.rep.set("sweep.cache_put_us", median(puts))
	return nil
}

// replicatePass runs every point of the grid's second pass through
// scenario.Compile and replicate.Run with a benchmark function calling
// cluster.Run per replication, with spans around each, and checks each
// point's event count against the recorded reference.
func (w *sweepRun) replicatePass(g sweepGrid) error {
	rep, tr := w.rep, w.tr
	p, err := pool.New(w.e.nproc)
	if err != nil {
		return err
	}
	var compileUs []float64
	var events, admissions, losses, shards uint64
	var runTime time.Duration
	reps := 0
	t0 := time.Now()
	for _, pt := range g.pass2 {
		trace := uint64(1<<32) + uint64(pt.Index)
		c0 := time.Now()
		c, err := pt.Scenario.Compile()
		compileUs = append(compileUs, float64(time.Since(c0).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		root := tr.Begin("replicate.Run", trace, 0)
		rcfg := c.Replication
		rcfg.Pool = p
		var mu sync.Mutex
		res, err := replicate.Run(context.Background(), rcfg, func(r int, seed uint64) (*cluster.Result, error) {
			sp := tr.Begin("replicate.rep", trace, root.ID)
			defer tr.End(sp)
			cc, err := pt.Scenario.Compile()
			if err != nil {
				return nil, err
			}
			cfg := cc.Cluster
			cfg.Seed = seed
			cfg.Pool = p
			run := tr.Begin("cluster.Run", trace, sp.ID)
			out, err := cluster.Run(cfg)
			run = tr.End(run)
			mu.Lock()
			runTime += run.Dur()
			mu.Unlock()
			return out, err
		}, func(r *cluster.Result) float64 { return 0 })
		tr.End(root)
		rep.attempted++
		if err != nil {
			rep.fail(fmt.Errorf("replicate pass: point %d: %w", pt.Index, err))
			continue
		}
		var ev uint64
		for _, out := range res.Outputs {
			ev += out.Obs.Counters["desim/events_fired"]
			admissions += out.Obs.Counters["cluster/admissions"]
			losses += out.Obs.Counters["cluster/losses"]
			shards = max(shards, uint64(max(1, out.Obs.Gauges["cluster/shards"])))
			reps++
		}
		events += ev
		key := fmt.Sprintf(sweepRefKeyShape, g.seed, pt.Index)
		if want, ok := references.SweepEvents[key]; !ok || want != ev {
			rep.fail(fmt.Errorf("replicate pass: point %s fired %d events, reference %d", key, ev, want))
		}
	}
	wall := time.Since(t0)
	rep.set("scenario.compile_us", median(compileUs))
	rep.set("replicate.reps", float64(reps))
	repMs := tr.Durations("replicate.rep", time.Millisecond)
	rep.set("replicate.rep_ms_p50", median(repMs))
	mx, _ := percentile(repMs, 100)
	rep.set("replicate.rep_ms_max", mx)
	rep.set("cluster.run_ms", median(tr.Durations("cluster.Run", time.Millisecond)))
	rep.set("cluster.admissions", float64(admissions))
	rep.set("cluster.losses", float64(losses))
	rep.set("cluster.shards", float64(shards))
	rep.set("desim.events_fired", float64(events))
	if events > 0 {
		rep.set("desim.ns_per_event", float64(runTime.Nanoseconds())/float64(events))
		rep.set("sim_events_per_s", float64(events)/wall.Seconds())
	}
	return nil
}

// ---- sim-sharded ----

// runDigest is the deterministic part of one cluster.Result: everything
// but wall-clock gauges.
type runDigest struct {
	Services []serviceDigest
	Hosts    []cluster.HostMetrics
	Failures int64
	Window   float64
	Counters map[string]uint64
}

type serviceDigest struct {
	Name                       string
	Arrivals, Served, Lost     int64
	LossProb, Throughput       float64
	RespMean, RespP95, RespP99 float64
}

func resultDigest(res *cluster.Result) (string, error) {
	d := runDigest{Hosts: res.Hosts, Failures: res.Failures, Window: res.Window, Counters: res.Obs.Counters}
	for _, s := range res.Services {
		d.Services = append(d.Services, serviceDigest{Name: s.Name, Arrivals: s.Arrivals, Served: s.Served, Lost: s.Lost,
			LossProb: s.LossProb, Throughput: s.Throughput, RespMean: s.ResponseTimes.Mean(), RespP95: s.RespP95, RespP99: s.RespP99})
	}
	b, err := json.Marshal(d)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

type shardedRun struct {
	e     *env
	rep   *report
	sc    scenario.Scenario
	seeds []uint64 // in the seed's batch order
	pool  *pool.Pool
	tr    *Tracer
}

// runSharded runs batches of dedicated sharded-fleet runs, one per run
// seed, each through scenario.Compile → cluster.Run on the shared pool.
func runSharded(e *env) (*report, error) {
	p := e.params
	data, err := os.ReadFile(filepath.Join(e.root, p.Scenario))
	if err != nil {
		return nil, err
	}
	w := &shardedRun{e: e, rep: newReport()}
	if w.pool, err = pool.New(e.nproc); err != nil {
		return nil, err
	}
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		sc, err := scenario.ParseBytes(data)
		if err != nil {
			return 0, err
		}
		if _, err := sc.Compile(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		w.sc = sc
		return d, nil
	}
	sl := newSpeedLog(e.nproc)
	setups, err := timeSetups(nil, setup)
	if err != nil {
		return nil, err
	}
	for _, i := range stats.NewStream(e.seed, "perfbench/sharded-order").Perm(len(p.RunSeeds)) {
		w.seeds = append(w.seeds, p.RunSeeds[i])
	}

	if e.trace {
		return w.traced()
	}
	tot := simTotals{sl: sl}
	for k := 0; k == 0 || tot.elapsed() < e.budget(simMeasureShare); k++ {
		sl.mark()
		b, _, err := w.batch(uint64(k))
		if err != nil {
			return nil, err
		}
		tot.add(b)
		if setups, err = timeSetups(setups, setup); err != nil {
			return nil, err
		}
	}
	sl.mark()
	if err := tot.report(w.rep, p.TailPercentile, setups); err != nil {
		return nil, err
	}
	return w.rep, nil
}

// shardedCounts sums one batch's engine counters.
type shardedCounts struct {
	events, admissions, losses uint64
	shards                     float64
	runTime                    time.Duration
}

func (w *shardedRun) batch(k uint64) (simBatch, shardedCounts, error) {
	var b simBatch
	var cnt shardedCounts
	c0, t0 := cpuSeconds(), time.Now()
	for _, seed := range w.seeds {
		c, err := w.sc.Compile()
		if err != nil {
			return b, cnt, err
		}
		cfg := c.Cluster
		cfg.Seed = seed
		cfg.Pool = w.pool
		sp := w.tr.Begin("cluster.Run", k, 0)
		r0 := time.Now()
		res, err := cluster.Run(cfg)
		d := time.Since(r0)
		w.tr.End(sp)
		b.latencies = append(b.latencies, ms(d))
		b.ops++
		w.rep.attempted++
		if err != nil {
			w.rep.fail(fmt.Errorf("seed %d: %w", seed, err))
			continue
		}
		if err := checkSharded(seed, res); err != nil {
			w.rep.fail(err)
		}
		cnt.events += res.Obs.Counters["desim/events_fired"]
		cnt.admissions += res.Obs.Counters["cluster/admissions"]
		cnt.losses += res.Obs.Counters["cluster/losses"]
		cnt.shards = max(cnt.shards, res.Obs.Gauges["cluster/shards"])
		cnt.runTime += d
	}
	b.wall, b.cpu = time.Since(t0), seconds(cpuSeconds()-c0)
	return b, cnt, nil
}

func checkSharded(seed uint64, res *cluster.Result) error {
	key := fmt.Sprint(seed)
	got, err := resultDigest(res)
	if err != nil {
		return err
	}
	want, ok := references.Sharded[key]
	if !ok {
		return fmt.Errorf("no recorded reference for sharded run seed %s", key)
	}
	if got != want {
		return fmt.Errorf("sharded run seed %s differs from the recorded reference", key)
	}
	if ev := res.Obs.Counters["desim/events_fired"]; ev != references.ShardedEvents[key] {
		return fmt.Errorf("sharded run seed %s fired %d events, reference %d", key, ev, references.ShardedEvents[key])
	}
	return nil
}

func (w *shardedRun) traced() (*report, error) {
	e, rep := w.e, w.rep
	var untraced, traced simTotals
	for k := 0; k == 0 || untraced.elapsed() < e.budget(traceHalfShare); k++ {
		b, _, err := w.batch(uint64(k))
		if err != nil {
			return nil, err
		}
		untraced.add(b)
	}
	var err error
	if w.pool, err = pool.New(e.nproc); err != nil {
		return nil, err
	}
	w.tr = newTracer()
	rep.tracer = w.tr
	sampler := samplePool(w.pool)
	m0 := readMem()
	var first shardedCounts
	var firstWall time.Duration
	for k := 0; k == 0 || traced.elapsed() < e.budget(traceHalfShare); k++ {
		b, cnt, err := w.batch(uint64(k + 1))
		if err != nil {
			sampler.ratio()
			return nil, err
		}
		if k == 0 {
			first, firstWall = cnt, b.wall
		}
		traced.add(b)
	}
	dm := readMem().sub(m0)
	setPool(rep, w.pool, sampler.ratio())
	setRuntime(rep, dm)
	rep.set("trace.overhead_ratio", median(traced.walls())/median(untraced.walls()))
	rep.set("cluster.run_ms", median(w.tr.Durations("cluster.Run", time.Millisecond)))
	rep.set("cluster.admissions", float64(first.admissions))
	rep.set("cluster.losses", float64(first.losses))
	rep.set("cluster.shards", first.shards)
	rep.set("desim.events_fired", float64(first.events))
	if first.events > 0 {
		rep.set("desim.ns_per_event", float64(first.runTime.Nanoseconds())/float64(first.events))
		rep.set("sim_events_per_s", float64(first.events)/firstWall.Seconds())
	}
	rep.details["counts_cover"] = "the first traced batch: one run per run seed"
	return rep, nil
}
