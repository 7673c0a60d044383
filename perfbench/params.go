package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/serve"
)

//go:embed workloads.json
var workloadsJSON []byte

// Params are one workload's fixed properties, as recorded in
// workloads.json. Fields a workload kind does not use stay zero.
type Params struct {
	Kind           string  `json:"kind"`
	Why            string  `json:"why"`
	TailPercentile float64 `json:"tail_percentile"`
	Rounds         int     `json:"rounds,omitempty"`

	// Serving workloads (kind "serve").
	NominalRPS        float64   `json:"nominal_rps,omitempty"`
	LatencyLimitMs    float64   `json:"latency_limit_ms,omitempty"`
	LadderRPS         []float64 `json:"ladder_rps,omitempty"`
	LadderStart       int       `json:"ladder_start,omitempty"`
	LadderProbes      int       `json:"ladder_probes,omitempty"`
	NominalShare      float64   `json:"nominal_share,omitempty"`
	EchoShare         float64   `json:"echo_share,omitempty"`
	StepShare         float64   `json:"step_share,omitempty"`
	MeanRequests      float64   `json:"mean_requests,omitempty"`
	ThinkMs           float64   `json:"think_ms,omitempty"`
	TargetsNote       string    `json:"targets_note,omitempty"`
	Targets           []Target  `json:"targets,omitempty"`
	FreshRhoShare     float64   `json:"fresh_rho_share,omitempty"`
	PlanKinds         []string  `json:"plan_kinds,omitempty"`
	RateFactors       []float64 `json:"rate_factors,omitempty"`
	WallBatchRequests int       `json:"wall_batch_requests,omitempty"`
	WallBatchPasses   int       `json:"wall_batch_passes,omitempty"`

	// Sweep workload (kind "sweep").
	Spec        string   `json:"spec,omitempty"`
	Horizon     float64  `json:"horizon,omitempty"`
	Reps        int      `json:"reps,omitempty"`
	ExtendHosts []int    `json:"extend_hosts,omitempty"`
	RootSeeds   []uint64 `json:"root_seeds,omitempty"`

	// Sharded workload (kind "sharded").
	Scenario string   `json:"scenario,omitempty"`
	RunSeeds []uint64 `json:"run_seeds,omitempty"`
}

// Target is one weighted request template of a query workload: a single
// /v1/servers or /v1/loss query, or the queries of one /v1/batch.
type Target struct {
	Route   string        `json:"route"`
	Weight  int           `json:"weight"`
	Queries []serve.Query `json:"queries"`
}

type workloadFile struct {
	Workloads map[string]Params `json:"workloads"`
}

// loadParams returns the named workload's fixed properties.
func loadParams(name string) (Params, error) {
	var f workloadFile
	if err := json.Unmarshal(workloadsJSON, &f); err != nil {
		return Params{}, fmt.Errorf("workloads.json: %w", err)
	}
	p, ok := f.Workloads[name]
	if !ok {
		names := make([]string, 0, len(f.Workloads))
		for n := range f.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return Params{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
	}
	return p, nil
}
