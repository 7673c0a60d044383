package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of a comparison, per workload and end-to-end metric.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within bound"
)

// boundSpec is the part of BENCHMARK.json a comparison needs.
type boundSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict applies the comparison rule to one metric's runs, base[i] and
// change[i] forming pair i:
//
//   - gain: the change wins at least 9 of every 10 pairs (ties count for
//     neither side) and the medians differ by more than the base's
//     interquartile range;
//   - unresolved: the base's interquartile range, as a share of its
//     median, exceeds the bound, unless every change run beats every
//     base run;
//   - regression: the change's median is worse than the base's by more
//     than the bound (a share of the base median);
//   - within bound otherwise.
func verdict(base, change []float64, lowerIsBetter bool, bound float64) string {
	better := func(c, b float64) bool {
		if lowerIsBetter {
			return c < b
		}
		return c > b
	}
	mb, mc := median(base), median(change)
	q1, q3 := quartiles(base)
	pairs := min(len(base), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && better(mc, mb) && math.Abs(mc-mb) > q3-q1 {
		return verdictGain
	}
	allBetter := len(base) > 0 && len(change) > 0
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	if (q3-q1)/math.Abs(mb) > bound && !allBetter {
		return verdictUnresolved
	}
	worse := (mc - mb) / math.Abs(mb)
	if !lowerIsBetter {
		worse = -worse
	}
	if worse > bound {
		return verdictRegression
	}
	return verdictWithin
}

// readRecords loads saved runs (--save output), grouped by workload, each
// group in file order; traced runs are skipped.
func readRecords(path string) (map[string][]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]Result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Provenance.Trace != 0 {
			continue
		}
		out[r.Provenance.Workload] = append(out[r.Provenance.Workload], r.Result)
	}
	return out, sc.Err()
}

// runCompare prints, for each workload in both sets and each end-to-end
// metric, both sides' medians and quartiles, the change's ratio to its
// base, the pair wins and the verdict.
func runCompare(w io.Writer, benchPath, basePath, changePath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec boundSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	var workloads []string
	for name := range base {
		if _, ok := change[name]; ok {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return fmt.Errorf("no workload has runs in both %s and %s", basePath, changePath)
	}
	fmt.Fprintf(w, "%-12s %-16s %-30s %-30s %-34s %-6s %s\n",
		"workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio (base)", "wins", "verdict")
	for _, name := range workloads {
		for _, m := range spec.EndToEnd {
			b, c := metricValues(base[name], m.Name), metricValues(change[name], m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			lower := m.Better == "lower"
			bq1, bq3 := quartiles(b)
			cq1, cq3 := quartiles(c)
			mb, mc := median(b), median(c)
			wins, pairs := 0, min(len(b), len(c))
			for i := 0; i < pairs; i++ {
				if (lower && c[i] < b[i]) || (!lower && c[i] > b[i]) {
					wins++
				}
			}
			fmt.Fprintf(w, "%-12s %-16s %-30s %-30s %-34s %-6s %s\n", name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", mb, bq1, bq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", mc, cq1, cq3),
				fmt.Sprintf("%.3f (base %.4g %s)", mc/mb, mb, m.Unit),
				fmt.Sprintf("%d/%d", wins, pairs),
				verdict(b, c, lower, m.Bound))
		}
	}
	return nil
}

func metricValues(rs []Result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}
