// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in-process against the repository's public entry points, checks
// every answer, and prints the workload's metrics as one JSON line:
//
//	bash perfbench/run.sh --workload serve-query --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that records spans around the calls into each layer and prints the
// per-layer metrics. --compare BASE CHANGE compares two sets of saved runs
// (see --save). README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// env is one run's settings.
type env struct {
	params  Params
	root    string // repository root: fixtures and example scenarios
	outDir  string // build and scratch output, inside the root
	seed    uint64
	seconds float64
	trace   bool
	nproc   int
}

// budget is the share f of the run's measuring time.
func (e *env) budget(f float64) time.Duration { return seconds(e.seconds * f) }

// report is what a workload hands back: operation counts, the metrics of
// the requested kind, and details for the provenance line.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]Metric
	details           map[string]any
	tracer            *Tracer
}

func newReport() *report {
	return &report{metrics: map[string]Metric{}, details: map[string]any{}}
}

func (r *report) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = Metric{Value: v, Unit: unit}
}

// fail counts one wrong or failed operation, keeping the first few
// messages for the provenance line.
func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// tally folds a batch of outcomes into the operation counts.
func (r *report) tally(outs []Outcome) {
	r.attempted += len(outs)
	for _, o := range outs {
		if o.Err != nil {
			r.fail(o.Err)
		}
	}
}

// tallyErrs folds a batch of per-operation errors into the counts.
func (r *report) tallyErrs(errs []error) {
	r.attempted += len(errs)
	for _, err := range errs {
		if err != nil {
			r.fail(err)
		}
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "workload name (see workloads.json)")
		seed         = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		secs         = flag.Float64("seconds", 20, "measuring time of the run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		root         = flag.String("root", ".", "repository root")
		outDir       = flag.String("out-dir", ".bench_build", "build and scratch output directory")
		save         = flag.String("save", "", "append this run's provenance and result to the given JSONL file")
		baseline     = flag.Bool("baseline", false, "the saved run is a baseline: refuse unless the git tree is clean")
		compare      = flag.Bool("compare", false, "compare two saved run sets: perfbench --compare BASE.jsonl CHANGE.jsonl")
		benchFile    = flag.String("bench", "BENCHMARK.json", "BENCHMARK.json with the metric bounds (for --compare)")
		record       = flag.Bool("record", false, "regenerate testdata/references.json from the current program")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs BASE and CHANGE files")
			return 2
		}
		if err := runCompare(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	absOut, err := filepath.Abs(*outDir)
	if err == nil {
		err = os.MkdirAll(absOut, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	if *record {
		if err := recordReferences(absRoot, nproc); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: record:", err)
			return 1
		}
		return 0
	}

	params, err := loadParams(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	prov := provenance(absRoot, *workloadName, *seed, *secs, *trace, params, nproc, *save)
	if *baseline && *save != "" && prov.GitDirty != "false" {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to write a baseline from a tree whose git state is %q (revision %s); commit first\n", prov.GitDirty, prov.GitRevision)
		return 2
	}

	steal0, total0 := stealTicks()
	e := &env{params: params, root: absRoot, outDir: absOut,
		seed: *seed, seconds: *secs, trace: *trace == 1, nproc: nproc}
	var rep *report
	switch params.Kind {
	case "serve":
		rep, err = runServe(e)
	case "sweep":
		rep, err = runSweep(e)
	case "sharded":
		rep, err = runSharded(e)
	default:
		err = fmt.Errorf("workload %q has unknown kind %q", *workloadName, params.Kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	names := endToEnd
	if e.trace {
		names = perLayer
		if rep.attempted > 0 {
			rep.set("error_ratio", float64(rep.failed)/float64(rep.attempted))
		}
		for _, n := range names {
			// A layer the workload does not exercise reports zero work.
			if _, ok := rep.metrics[n]; !ok {
				rep.set(n, 0)
			}
		}
		if rep.tracer != nil {
			path := filepath.Join(absOut, fmt.Sprintf("spans-%s-seed%d.jsonl", *workloadName, *seed))
			if err := rep.tracer.WriteJSONL(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
				return 1
			}
			rep.details["spans_file"] = path
		}
	}
	res := Result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]Metric{}}
	var missing []string
	for _, n := range names {
		m, ok := rep.metrics[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		res.Metrics[n] = m
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintln(os.Stderr, "perfbench: workload did not measure", missing)
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	if steal1, total1 := stealTicks(); total1 > total0 {
		// Time the hypervisor gave to other guests while this one wanted
		// the CPU: high values mark a noisy host, not a slow program.
		rep.details["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	prov.Details = rep.details
	prov.Failures = rep.failures

	provLine, _ := json.Marshal(map[string]any{"provenance": prov})
	resLine, _ := json.Marshal(res)
	fmt.Println(string(provLine))
	fmt.Println(string(resLine))
	if *save != "" {
		if err := appendRecord(*save, prov, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed or answered wrongly; first: %v\n",
			res.Failed, res.Attempted, rep.failures)
		return 1
	}
	return 0
}

// record is one saved run: what --save appends and --compare reads.
type record struct {
	Provenance Provenance `json:"provenance"`
	Result     Result     `json:"result"`
}

func appendRecord(path string, prov Provenance, res Result) error {
	line, err := json.Marshal(record{Provenance: prov, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return errors.Join(err, f.Close())
}
