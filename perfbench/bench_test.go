package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serve"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := schedule(7, "nominal", 500, 2*time.Second, 5, 20*time.Millisecond)
	b := schedule(7, "nominal", 500, 2*time.Second, 5, 20*time.Millisecond)
	if len(a) < 100 {
		t.Fatalf("schedule has %d requests, want hundreds", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if c := schedule(8, "nominal", 500, 2*time.Second, 5, 20*time.Millisecond); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("due time %d (%v) out of order or past the phase", i, a[i])
		}
	}
}

func TestOpsAreAFunctionOfTheSeed(t *testing.T) {
	p, err := loadParams("serve-query")
	if err != nil {
		t.Fatal(err)
	}
	paths := func(seed uint64) []string {
		g, err := newOpGen(&env{params: p, seed: seed, root: ".."})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, op := range g.draw("nominal", 200) {
			out = append(out, op.method+op.path+string(op.body))
		}
		return out
	}
	if !reflect.DeepEqual(paths(3), paths(3)) {
		t.Fatal("the same seed drew two different request lists")
	}
	if reflect.DeepEqual(paths(3), paths(4)) {
		t.Fatal("seeds 3 and 4 drew the same request list")
	}
}

// serve-query's request templates are the load harness's default mix.
func TestTargetsAreTheLoadHarnessDefaults(t *testing.T) {
	p, err := loadParams("serve-query")
	if err != nil {
		t.Fatal(err)
	}
	var want []Target
	for _, dt := range loadgen.DefaultTargets {
		path, query, _ := strings.Cut(dt.Path, "?")
		tg := Target{Route: strings.TrimPrefix(path, "/v1/"), Weight: dt.Weight}
		if dt.Body != "" {
			var req serve.BatchRequest
			if err := json.Unmarshal([]byte(dt.Body), &req); err != nil {
				t.Fatal(err)
			}
			tg.Queries = req.Queries
		} else {
			v, err := url.ParseQuery(query)
			if err != nil {
				t.Fatal(err)
			}
			q := serve.Query{Kind: tg.Route}
			q.Rho, _ = strconv.ParseFloat(v.Get("rho"), 64)
			q.Target, _ = strconv.ParseFloat(v.Get("target"), 64)
			q.N, _ = strconv.Atoi(v.Get("n"))
			tg.Queries = []serve.Query{q}
		}
		want = append(want, tg)
	}
	if !reflect.DeepEqual(p.Targets, want) {
		t.Fatalf("serve-query targets\n%+v\nwant loadgen.DefaultTargets\n%+v", p.Targets, want)
	}
}

// Saving runs into a file inside the tree must not make the next
// baseline run see a dirty tree.
func TestBaselineSaveFileDoesNotDirtyTheTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) {
		cmd := exec.Command("git", append([]string{"-C", dir, "-c", "user.name=perfbench", "-c", "user.email=perfbench@example.com"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	git("init", "-q")
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("add", "go.mod")
	git("commit", "-q", "-m", "init")
	save := filepath.Join(dir, "base.jsonl")
	if _, dirty := gitState(dir, save); dirty != "false" {
		t.Fatalf("clean tree reported dirty=%s", dirty)
	}
	if err := appendRecord(save, Provenance{}, Result{}); err != nil {
		t.Fatal(err)
	}
	if _, dirty := gitState(dir, save); dirty != "false" {
		t.Fatalf("second baseline run sees dirty=%s after the first saved its run", dirty)
	}
	if _, dirty := gitState(dir, ""); dirty != "true" {
		t.Fatalf("an untracked file other than the save file reported dirty=%s", dirty)
	}
}

// A stall in one request must show in the latency of the requests due
// behind it: latency runs from the due time, not the send time.
func TestLatencyIsTimedFromTheDueTime(t *testing.T) {
	const n, stall = 20, 60 * time.Millisecond
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(i) * time.Millisecond
	}
	outs := runOpenLoop(dues, 1, func(_, i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	for i := 0; i < 5; i++ {
		if outs[i].Latency > 20*time.Millisecond {
			t.Errorf("request %d before the stall took %v", i, outs[i].Latency)
		}
	}
	for i := 6; i < n; i++ {
		// Due at most n ms after the stalled request, sent after it.
		if min := stall - time.Duration(n)*time.Millisecond; outs[i].Latency < min {
			t.Errorf("request %d behind the stall has latency %v, want >= %v", i, outs[i].Latency, min)
		}
		if outs[i].Latency < outs[i].Lateness {
			t.Errorf("request %d latency %v is less than its lateness %v", i, outs[i].Latency, outs[i].Lateness)
		}
	}
	if outs[n-1].Lateness < 30*time.Millisecond {
		t.Errorf("the generator reports lateness %v for the last request, want the stall to show", outs[n-1].Lateness)
	}
	errs := runOpenLoop(dues[:3], 2, func(_, i int) error {
		if i == 1 {
			return errors.New("wrong answer")
		}
		return nil
	})
	if errs[0].Err != nil || errs[1].Err == nil || errs[2].Err != nil {
		t.Errorf("per-request errors not kept in index order: %+v", errs)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{1000, 99, 990, true}, // 10 beyond
		{999, 99, 0, false},   // rank 990: 9 beyond
		{100, 90, 90, true},
		{99, 90, 0, false},
		{20, 50, 10, true},
		{19, 50, 0, false},
	} {
		v, _, err := tailPercentile(xs(tc.n), tc.p)
		if (err == nil) != tc.wantOK || (tc.wantOK && v != tc.want) {
			t.Errorf("p%g of %d samples: got %v, %v; want %v ok=%v", tc.p, tc.n, v, err, tc.want, tc.wantOK)
		}
	}
}

// calibRing must be one cycle through every slot, or the chase would
// loop in a short cycle that stays in L1 and miss what it measures.
func TestCalibRingIsOneCycle(t *testing.T) {
	p, n := uint32(0), 0
	for {
		p = calibRing[p]
		n++
		if p == 0 {
			break
		}
		if n > calibWords {
			t.Fatal("the chase never returns to its start")
		}
	}
	if n != calibWords {
		t.Fatalf("cycle through slot 0 has %d slots, want %d", n, calibWords)
	}
}

// The run's CPU factor is the median kernel CPU time over the reference,
// and its wall factor the geometric mean of that and the median kernel
// wall time over the reference.
func TestSpeedLogScalesByTheMedianCalibration(t *testing.T) {
	s := &speedLog{n: 2, times: []float64{1, 3, 2}, cpus: []float64{2, 2, 8}}
	if got, want := s.factor(), math.Sqrt(2/calibRefSeconds*(2/calibRefCPUSeconds)); math.Abs(got-want) > 1e-9*want {
		t.Errorf("factor = %v, want %v", got, want)
	}
	if got, want := s.cpuFactor(), 2/calibRefCPUSeconds; got != want {
		t.Errorf("cpuFactor = %v, want %v", got, want)
	}
	if w, c := calibrate(2); !(w > 0 && c > 0) {
		t.Errorf("calibrate = %v, %v; want positive times", w, c)
	}
}

// The echo probe answers every request and stops serving when closed.
func TestEchoProbeRoundTrips(t *testing.T) {
	p, err := startEcho(2)
	if err != nil {
		t.Fatal(err)
	}
	dues := make([]time.Duration, 50)
	for i := range dues {
		dues[i] = time.Duration(i) * 200 * time.Microsecond
	}
	lat, err := p.phase(dues)
	if err != nil || len(lat) != len(dues) || !(median(lat) > 0) {
		t.Errorf("echo phase = %v, %v; want %d positive latencies", lat, err, len(dues))
	}
	if err := p.close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, err := p.phase(dues[:1]); err == nil {
		t.Error("a closed probe still answers")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name          string
		base, change  []float64
		lowerIsBetter bool
		bound         float64
		want          string
	}{
		{"faster on every pair", steady, scaled(steady, 0.8), true, 0.1, verdictGain},
		{"higher rate on every pair", steady, scaled(steady, 1.2), false, 0.1, verdictGain},
		{"same code", steady, steady, true, 0.1, verdictWithin},
		{"slightly slower, within bound", steady, scaled(steady, 1.05), true, 0.1, verdictWithin},
		{"slower beyond bound", steady, scaled(steady, 1.3), true, 0.1, verdictRegression},
		{"lower rate beyond bound", steady, scaled(steady, 0.7), false, 0.1, verdictRegression},
		{"spread wider than bound", noisy, scaled(noisy, 0.97), true, 0.1, verdictUnresolved},
		{"wide spread but every change run better", noisy, scaled(steady, 0.5), true, 0.1, verdictGain},
		{"wins too few pairs", steady, []float64{90, 90, 90, 90, 90, 90, 90, 90, 110, 110}, true, 0.1, verdictWithin},
	} {
		if got := verdict(tc.base, tc.change, tc.lowerIsBetter, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// The metric lists the program prints must be exactly BENCHMARK.json's.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct {
		Name, Unit string
	}
	var spec struct {
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i] || m.Unit != metricUnits[m.Name] {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, m.Name, m.Unit, want[i], metricUnits[want[i]])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := loadParams(w.Name); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}
