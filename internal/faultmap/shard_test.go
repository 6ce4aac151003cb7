package faultmap

import (
	"context"
	"errors"
	"flag"
	"math/rand"
	"testing"

	"sramtest/internal/march"
	"sramtest/internal/sweep/sweeptest"
)

var update = flag.Bool("update", false, "rewrite the testdata Partial wire-format goldens")

// TestPartialWireGolden pins the PartialVersion 1 wire format: both
// shards of a 2-way split encode to the recorded bytes, and the
// recorded partials still merge to the whole corpus evaluation.
func TestPartialWireGolden(t *testing.T) {
	ctx := context.Background()
	p := testParams()
	whole, err := Estimate(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	sweeptest.PartialGolden(t, "testdata", 2, whole, func(k, s int) (Partial, error) {
		sp := p
		sp.Shards, sp.Shard = k, s
		return ShardPartial(ctx, sp)
	}, MergePartials, *update)
}

// TestShardSplitProperty: on randomized corpora — sizes from one map
// to several chunks, seeds, rails — every shard split 2..5, JSON
// round-tripped and merged in shuffled order, reproduces the whole
// evaluation byte-for-byte (including splits where shards own no
// chunk).
func TestShardSplitProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2013))
	for i := 0; i < 2; i++ {
		p := Params{
			Maps: 1 + rng.Intn(2*MapChunk+1), Seed: rng.Int63(), Cond: testCond,
			Vref:  0.45 + 0.1*rng.Float64(),
			Tests: []march.Test{march.MarchMLZ()},
			Model: synthModel{},
		}
		whole, err := Estimate(ctx, p)
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

// TestShardPlacementRule: a whole evaluation refuses Shards > 1 and a
// shard partial Shards <= 1, both with ErrBadParams.
func TestShardPlacementRule(t *testing.T) {
	ctx := context.Background()
	p := testParams()
	p.Shards, p.Shard = 2, 1
	if _, err := Estimate(ctx, p); !errors.Is(err, ErrBadParams) {
		t.Errorf("Estimate with 2 shards: err = %v, want ErrBadParams", err)
	}
	for _, k := range []int{0, 1} {
		p.Shards, p.Shard = k, 0
		if _, err := ShardPartial(ctx, p); !errors.Is(err, ErrBadParams) {
			t.Errorf("ShardPartial with %d shards: err = %v, want ErrBadParams", k, err)
		}
	}
}
