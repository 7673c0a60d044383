// Command simbench runs the simulation-core benchmarks — the
// microbenchmarks (BenchmarkStationHighOccupancy, BenchmarkDesimSchedule*,
// BenchmarkDesimReschedule, BenchmarkTimingWheel, BenchmarkSweep*,
// BenchmarkServe*) plus the whole-pipeline macro
// benchmarks BenchmarkRepro, BenchmarkShardedRun and BenchmarkPlan — through `go test
// -bench` and records ns/op, B/op, allocs/op and (for the whole-run
// benchmarks) events/s in a JSON file, so the performance trajectory of
// the hot path is tracked in-repo from PR to PR.
//
// BenchmarkShardedRun runs -count 5 times with -benchmem; its record holds
// the medians, and its allocs/op only where all five runs agree (null
// otherwise). The shards=4 count can differ by one between runs with its
// goroutines' scheduling, so benchdiff leaves it ungated.
//
// Usage:
//
//	go run ./cmd/simbench [-o BENCH_simcore.json] [-benchtime 20000x] [-macrotime 30x]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Record is one benchmark measurement. A benchmark run several times
// (Runs > 1) records the median of each figure.
type Record struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	Runs       int     `json:"runs,omitempty"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp int64   `json:"bytes_per_op"`
	// AllocsPerOp is null when it was not measured (no -benchmem) or the
	// runs disagree.
	AllocsPerOp *int64 `json:"allocs_per_op"`
	// EventsPerSec is the simulator's aggregate event rate, reported only
	// by the whole-run benchmarks (BenchmarkShardedRun).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// File is the BENCH_simcore.json layout: the legacy top-level fields
// (kept so older tooling still parses the file), the shared run-manifest
// envelope carrying provenance and a gauge mirror of every measurement,
// and the benchmark records themselves.
type File struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	BenchTime   string        `json:"bench_time"`
	Manifest    *obs.Manifest `json:"manifest,omitempty"`
	Benchmarks  []Record      `json:"benchmarks"`
}

// benchLine matches `go test -bench -benchmem` result rows, e.g.
// BenchmarkStationHighOccupancy/k=1000-8  20000  215.2 ns/op  32 B/op  1 allocs/op
// with an optional custom events/s metric between ns/op and the -benchmem
// columns, e.g.
// BenchmarkShardedRun/shards=4-8  30  49581163 ns/op  3011370 events/s  ...
// The -GOMAXPROCS suffix (absent at GOMAXPROCS=1) is dropped from the
// name, so files recorded on different machines name the same benchmarks
// alike; the manifest config records GOMAXPROCS instead.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.eE+]+) events/s)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// runBench executes one `go test -bench` invocation, count runs of each
// benchmark, and parses its rows into one record per benchmark.
func runBench(pattern, benchtime string, benchmem bool, count int, pkgs ...string) []Record {
	args := []string{"test", "-run", "^$", "-bench", pattern}
	if benchmem {
		args = append(args, "-benchmem")
	}
	args = append(args, "-benchtime", benchtime, "-count", strconv.Itoa(count))
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	var records []Record
	for _, line := range strings.Split(string(raw), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		var eps float64
		var bytes int64
		var allocs *int64
		if m[4] != "" {
			eps, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			bytes, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if m[6] != "" {
			n, _ := strconv.ParseInt(m[6], 10, 64)
			allocs = &n
		}
		records = append(records, Record{
			Name:         m[1],
			Iterations:   iters,
			NsPerOp:      ns,
			BytesPerOp:   bytes,
			AllocsPerOp:  allocs,
			EventsPerSec: eps,
		})
	}
	if count <= 1 {
		return records
	}
	return medians(records)
}

// medians folds repeated rows of each benchmark, in first-seen order, into
// one record of median figures. allocs/op is kept only when every run
// reports the same count.
func medians(rows []Record) []Record {
	var order []string
	byName := map[string][]Record{}
	for _, r := range rows {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Record, 0, len(order))
	for _, name := range order {
		runs := byName[name]
		var ns, bytes, eps []float64
		allocs := runs[0].AllocsPerOp
		for _, r := range runs {
			ns = append(ns, r.NsPerOp)
			bytes = append(bytes, float64(r.BytesPerOp))
			eps = append(eps, r.EventsPerSec)
			if allocs != nil && (r.AllocsPerOp == nil || *r.AllocsPerOp != *allocs) {
				allocs = nil
			}
		}
		out = append(out, Record{
			Name:         name,
			Iterations:   runs[0].Iterations,
			Runs:         len(runs),
			NsPerOp:      stats.Quantile(ns, 0.5),
			BytesPerOp:   int64(math.Round(stats.Quantile(bytes, 0.5))),
			AllocsPerOp:  allocs,
			EventsPerSec: stats.Quantile(eps, 0.5),
		})
	}
	return out
}

func main() {
	out := flag.String("o", "BENCH_simcore.json", "output file")
	benchtime := flag.String("benchtime", "20000x", "go test -benchtime value for the microbenchmarks (a fixed count keeps runs comparable)")
	macrotime := flag.String("macrotime", "30x", "go test -benchtime value for the whole-run BenchmarkShardedRun (tens of ms per op)")
	flag.Parse()

	man := obs.NewManifest("simbench", 0)
	man.Config = map[string]string{
		"benchtime":  *benchtime,
		"macrotime":  *macrotime,
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
	}

	records := runBench(
		"BenchmarkStationHighOccupancy|BenchmarkDesimSchedule|BenchmarkDesimReschedule|BenchmarkTimingWheel|BenchmarkSweep|BenchmarkRepro|BenchmarkServe",
		*benchtime, true, 1,
		"./internal/cluster", "./internal/desim", "./internal/sweep", "./internal/serve")
	// The whole-run shard benchmark is ~10^5 slower per op than the
	// microbenchmarks; a fixed 20000x count would run for hours, so it
	// gets its own much smaller fixed count, repeated five times.
	records = append(records, runBench("BenchmarkShardedRun", *macrotime, true, 5, "./internal/cluster")...)
	// The placement planner runs hundreds of evaluations per op (~20 ms);
	// like the sharded run it gets the macro count, and its pool-parallel
	// batches make allocation counts jitter, so -benchmem stays off.
	records = append(records, runBench("BenchmarkPlan", *macrotime, false, 1, "./internal/plan")...)
	if len(records) == 0 {
		fmt.Fprintln(os.Stderr, "simbench: no benchmark results parsed")
		os.Exit(1)
	}

	verCmd := exec.Command("go", "env", "GOVERSION")
	ver, _ := verCmd.Output()

	// Mirror every measurement into the manifest's metric snapshot so
	// bench files and run manifests share one machine-readable shape.
	reg := obs.NewRegistry()
	for _, r := range records {
		reg.Gauge(r.Name + "/ns_per_op").Set(r.NsPerOp)
		reg.Gauge(r.Name + "/bytes_per_op").Set(float64(r.BytesPerOp))
		if r.AllocsPerOp != nil {
			reg.Gauge(r.Name + "/allocs_per_op").Set(float64(*r.AllocsPerOp))
		}
		if r.EventsPerSec > 0 {
			reg.Gauge(r.Name + "/events_per_sec").Set(r.EventsPerSec)
		}
	}
	man.Finish(reg.Snapshot())

	data, err := json.MarshalIndent(File{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   strings.TrimSpace(string(ver)),
		BenchTime:   *benchtime,
		Manifest:    man,
		Benchmarks:  records,
	}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	for _, r := range records {
		allocs := "null"
		if r.AllocsPerOp != nil {
			allocs = strconv.FormatInt(*r.AllocsPerOp, 10)
		}
		fmt.Printf("%-45s %12.1f ns/op %6d B/op %4s allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, allocs)
		if r.EventsPerSec > 0 {
			fmt.Printf(" %12.0f events/s", r.EventsPerSec)
		}
		fmt.Println()
	}
	fmt.Printf("wrote %s\n", *out)
}
