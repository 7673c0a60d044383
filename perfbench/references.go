package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cluster"
	"repro/internal/pool"
	"repro/internal/replicate"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// References are the committed expected outputs the workloads check
// against, for every input a seed can draw. --record regenerates them
// from the current program; a change that alters any of them changes the
// program's answers.
type References struct {
	// Plans maps planKey(kind, factor) to the response of that request.
	Plans map[string]BodyRef `json:"plans"`
	// SweepPoints maps "rootseed/index" to the SHA-256 of the point's
	// JSON summary; SweepEvents to its events fired over all replications.
	SweepPoints map[string]string `json:"sweep_points"`
	SweepEvents map[string]uint64 `json:"sweep_events"`
	// Sharded maps a run seed to the SHA-256 of its result digest;
	// ShardedEvents to its events fired.
	Sharded       map[string]string `json:"sharded"`
	ShardedEvents map[string]uint64 `json:"sharded_events"`
}

// BodyRef is one recorded HTTP response.
type BodyRef struct {
	Status int    `json:"status"`
	SHA256 string `json:"sha256"`
}

//go:embed testdata/references.json
var referencesJSON []byte

var references = func() References {
	var r References
	if err := json.Unmarshal(referencesJSON, &r); err != nil {
		panic("testdata/references.json: " + err.Error())
	}
	return r
}()

// recordReferences recomputes every reference and writes
// perfbench/testdata/references.json under root. Each output is computed
// twice (plans on two fresh services, sweep points at pool sizes 1 and
// nproc) and must agree with itself.
func recordReferences(root string, nproc int) error {
	out := References{Plans: map[string]BodyRef{}, SweepPoints: map[string]string{}, SweepEvents: map[string]uint64{},
		Sharded: map[string]string{}, ShardedEvents: map[string]uint64{}}

	sp, err := loadParams("serve-query")
	if err != nil {
		return err
	}
	for pass := 0; pass < 2; pass++ {
		svc, err := startService(nproc, false)
		if err != nil {
			return err
		}
		if err := svc.ready(); err != nil {
			svc.close()
			return err
		}
		cl := newClient(svc.base, 1)
		for _, kind := range sp.PlanKinds {
			for _, f := range sp.RateFactors {
				body, err := planBody(root, kind, f)
				if err != nil {
					return err
				}
				status, resp, err := cl.do(0, &serveOp{method: http.MethodPost, path: "/v1/plan", body: body}, 0)
				if err != nil {
					return err
				}
				ref := BodyRef{Status: status, SHA256: digest(resp)}
				key := planKey(kind, f)
				if prev, ok := out.Plans[key]; ok && prev != ref {
					return fmt.Errorf("plan %s answered differently on two fresh services", key)
				}
				out.Plans[key] = ref
			}
		}
		cl.hc.CloseIdleConnections()
		if err := svc.close(); err != nil {
			return err
		}
	}

	ss, err := loadParams("sim-sweep")
	if err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(root, ss.Spec))
	if err != nil {
		return err
	}
	for _, seed := range ss.RootSeeds {
		g, err := buildGrid(data, ss, seed)
		if err != nil {
			return err
		}
		for _, size := range []int{1, nproc} {
			p, err := pool.New(size)
			if err != nil {
				return err
			}
			res, err := sweep.NewEngine(p, nil, nil).RunPoints(context.Background(), g.pass2)
			if err != nil {
				return err
			}
			for i, pr := range res {
				d, err := pointDigest(pr)
				if err != nil {
					return err
				}
				key := fmt.Sprintf(sweepRefKeyShape, seed, g.pass2[i].Index)
				if prev, ok := out.SweepPoints[key]; ok && prev != d {
					return fmt.Errorf("sweep point %s differs between pool sizes", key)
				}
				out.SweepPoints[key] = d
			}
		}
		for _, pt := range g.pass2 {
			c, err := pt.Scenario.Compile()
			if err != nil {
				return err
			}
			rcfg := c.Replication
			res, err := replicate.Run(context.Background(), rcfg, func(_ int, seed uint64) (*cluster.Result, error) {
				cc, err := pt.Scenario.Compile()
				if err != nil {
					return nil, err
				}
				cfg := cc.Cluster
				cfg.Seed = seed
				return cluster.Run(cfg)
			}, func(*cluster.Result) float64 { return 0 })
			if err != nil {
				return err
			}
			var ev uint64
			for _, o := range res.Outputs {
				ev += o.Obs.Counters["desim/events_fired"]
			}
			out.SweepEvents[fmt.Sprintf(sweepRefKeyShape, seed, pt.Index)] = ev
		}
	}

	sh, err := loadParams("sim-sharded")
	if err != nil {
		return err
	}
	scData, err := os.ReadFile(filepath.Join(root, sh.Scenario))
	if err != nil {
		return err
	}
	sc, err := scenario.ParseBytes(scData)
	if err != nil {
		return err
	}
	for _, seed := range sh.RunSeeds {
		for _, size := range []int{1, nproc} {
			p, err := pool.New(size)
			if err != nil {
				return err
			}
			c, err := sc.Compile()
			if err != nil {
				return err
			}
			cfg := c.Cluster
			cfg.Seed = seed
			cfg.Pool = p
			res, err := cluster.Run(cfg)
			if err != nil {
				return err
			}
			d, err := resultDigest(res)
			if err != nil {
				return err
			}
			key := fmt.Sprint(seed)
			if prev, ok := out.Sharded[key]; ok && prev != d {
				return fmt.Errorf("sharded run seed %s differs between pool sizes", key)
			}
			out.Sharded[key] = d
			out.ShardedEvents[key] = res.Obs.Counters["desim/events_fired"]
		}
	}

	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, "perfbench", "testdata", "references.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	keys := make([]string, 0, len(out.Plans))
	for k, v := range out.Plans {
		keys = append(keys, fmt.Sprintf("%s=%d", k, v.Status))
	}
	sort.Strings(keys)
	fmt.Printf("wrote %s: plans %v, %d sweep points, %d sharded runs\n", path, keys, len(out.SweepPoints), len(out.Sharded))
	return nil
}
