package cluster

import (
	"context"
	"testing"

	"repro/internal/replicate"
)

// TestArenaRunMatchesPlain: a Run through a (repeatedly reused) pooled arena
// must reproduce a Run on fresh arenas (Config.Arenas nil) bit for bit —
// pooling is an allocation optimization, never a semantic one. Round 2+ exercises the reuse path:
// recycled simulator storage and request/jobRef freelists.
func TestArenaRunMatchesPlain(t *testing.T) {
	cfg := replCfg()
	plain, err := Run(cloneConfig(cfg, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	arenas := NewArenaPool()
	for round := 0; round < 3; round++ {
		c := cloneConfig(cfg, cfg.Seed)
		c.Arenas = arenas
		got, err := Run(c)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !sameResult(got, plain) {
			t.Fatalf("round %d: arena-backed run diverged from plain Run", round)
		}
	}
}

// TestArenaReplicationsDeterministic: whole replication studies through one
// shared pool — concurrent workers checking arenas in and out — stay
// identical to the study without a pool, run after run.
func TestArenaReplicationsDeterministic(t *testing.T) {
	ctx := context.Background()
	cfg := replCfg()
	rcfg := replicate.Config{Replications: 4, Workers: 2}

	base, err := Replications(ctx, cfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}

	pooled := cfg
	pooled.Arenas = NewArenaPool()
	for round := 0; round < 3; round++ {
		set, err := Replications(ctx, pooled, rcfg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range base.Results {
			if !sameResult(set.Results[i], base.Results[i]) {
				t.Fatalf("round %d: replication %d diverged from the arena-free study", round, i)
			}
		}
		if set.OverallLoss != base.OverallLoss || set.TotalThroughput != base.TotalThroughput ||
			set.BottleneckUtil != base.BottleneckUtil {
			t.Fatalf("round %d: aggregate CIs diverged", round)
		}
	}
}
