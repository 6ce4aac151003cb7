package yield

import (
	"context"
	"errors"
	"flag"
	"math/rand"
	"testing"

	"sramtest/internal/sweep/sweeptest"
)

var update = flag.Bool("update", false, "rewrite the testdata Partial wire-format goldens")

// goldenParams is the small two-chunk estimate behind the wire-format
// golden.
func goldenParams() Params {
	m := quadModel{lin: linModel{c: 0.1, g: oracleGrad}, curv: 0.2}
	return Params{Cond: testCond, Vref: 0.24, Samples: 64, Seed: DefaultSeed, Model: m}
}

// TestPartialWireGolden pins the PartialVersion 1 wire format: both
// shards of a 2-way split encode to the recorded bytes, and the
// recorded partials still merge to the whole estimate.
func TestPartialWireGolden(t *testing.T) {
	ctx := context.Background()
	est, _ := New(MethodIS)
	p := goldenParams()
	whole, err := est.Estimate(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	sweeptest.PartialGolden(t, "testdata", 2, whole, func(k, s int) (Partial, error) {
		sp := p
		sp.Shards, sp.Shard = k, s
		return est.Partial(ctx, sp)
	}, MergePartials, *update)
}

// TestShardSplitProperty: on randomized estimates — sample budgets,
// seeds, rails, including a certified P = 0 one — every shard split
// 2..5, JSON round-tripped and merged in shuffled order, reproduces the
// whole estimate byte-for-byte, for both estimators.
func TestShardSplitProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2013))
	quad := quadModel{lin: linModel{c: 0.1, g: oracleGrad}, curv: 0.2}
	cases := []Params{{Cond: testCond, Vref: 0.5, Samples: 100, Model: linModel{c: 0.05}}}
	for i := 0; i < 3; i++ {
		cases = append(cases, Params{
			Cond: testCond, Vref: 0.2 + 0.08*rng.Float64(),
			Samples: 1 + rng.Intn(200), Seed: rng.Int63(), Model: quad,
		})
	}
	for _, p := range cases {
		for _, method := range Methods() {
			est, _ := New(method)
			whole, err := est.Estimate(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			sweeptest.MergeProperty(t, rng, whole, func(k, s int) (Partial, error) {
				sp := p
				sp.Shards, sp.Shard = k, s
				return est.Partial(ctx, sp)
			}, MergePartials)
		}
	}
}

// TestShardPlacementRule: a whole estimate refuses Shards > 1 and a
// shard partial Shards <= 1, both with ErrBadParams.
func TestShardPlacementRule(t *testing.T) {
	ctx := context.Background()
	for _, method := range Methods() {
		est, _ := New(method)
		p := goldenParams()
		p.Shards, p.Shard = 2, 1
		if _, err := est.Estimate(ctx, p); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: Estimate with 2 shards: err = %v, want ErrBadParams", method, err)
		}
		for _, k := range []int{0, 1} {
			p.Shards, p.Shard = k, 0
			if _, err := est.Partial(ctx, p); !errors.Is(err, ErrBadParams) {
				t.Errorf("%s: Partial with %d shards: err = %v, want ErrBadParams", method, k, err)
			}
		}
	}
}
