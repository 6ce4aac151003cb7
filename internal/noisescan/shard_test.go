package noisescan

import (
	"context"
	"errors"
	"flag"
	"math/rand"
	"testing"

	"sramtest/internal/engine"
	"sramtest/internal/sweep/sweeptest"
)

var update = flag.Bool("update", false, "rewrite the testdata Partial wire-format goldens")

// TestPartialWireGolden pins the PartialVersion 1 wire format: both
// shards of a 2-way split encode to the recorded bytes, and the
// recorded partials still merge to the whole scan.
func TestPartialWireGolden(t *testing.T) {
	ctx := context.Background()
	p := quickParams()
	whole, err := Scan(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	sweeptest.PartialGolden(t, "testdata", 2, whole, func(k, s int) (Partial, error) {
		sp := p
		sp.Shards, sp.Shard = k, s
		return ShardPartial(ctx, sp)
	}, MergePartials, *update)
}

// TestShardSplitProperty: on randomized scans — grid sizes, case
// studies, ensemble seeds — every shard split 2..5, JSON round-tripped
// and merged in shuffled order, reproduces the whole scan
// byte-for-byte (including splits where shards own no point).
func TestShardSplitProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2013))
	for i := 0; i < 2; i++ {
		p := Params{CaseStudy: 1 + rng.Intn(5), Points: 2 + rng.Intn(5)}
		p.Noise = engine.DefaultNoiseParams()
		p.Noise.Seed = 1 + rng.Int63n(1<<20)
		whole, err := Scan(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		sweeptest.MergeProperty(t, rng, whole, func(k, s int) (Partial, error) {
			sp := p
			sp.Shards, sp.Shard = k, s
			return ShardPartial(ctx, sp)
		}, MergePartials)
	}
}

// TestShardPlacementRule: a whole scan refuses Shards > 1 — where it
// once returned an empty Result and no error — and a shard partial
// Shards <= 1, both with ErrBadParams.
func TestShardPlacementRule(t *testing.T) {
	ctx := context.Background()
	p := quickParams()
	p.Shards, p.Shard = 2, 1
	if res, err := Scan(ctx, p); !errors.Is(err, ErrBadParams) {
		t.Errorf("Scan with 2 shards: err = %v (result %+v), want ErrBadParams", err, res)
	}
	for _, k := range []int{0, 1} {
		p.Shards, p.Shard = k, 0
		if _, err := ShardPartial(ctx, p); !errors.Is(err, ErrBadParams) {
			t.Errorf("ShardPartial with %d shards: err = %v, want ErrBadParams", k, err)
		}
	}
}
