package exp

import (
	"reflect"
	"testing"

	"sramtest/internal/process"
)

// TestMonteCarloWorkerInvariance pins the sharded-RNG design: the
// sampled distribution is a pure function of (n, seed), identical for
// any worker count — including a non-multiple of the chunk size so the
// ragged last chunk is covered. Run under -race this also exercises the
// engine across the cell substrate.
func TestMonteCarloWorkerInvariance(t *testing.T) {
	cond := process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}
	const n, seed = 3*mcChunk + 5, 7

	one := MonteCarloWorkers(cond, n, seed, 1)
	four := MonteCarloWorkers(cond, n, seed, 4)
	if !reflect.DeepEqual(one, four) {
		t.Errorf("workers=4 distribution deviates from workers=1:\n%v\n%v", four.DRV, one.DRV)
	}
	def := MonteCarloWorkers(cond, n, seed, 0)
	if !reflect.DeepEqual(one, def) {
		t.Error("default-worker MonteCarlo deviates from the explicit path")
	}
	if len(one.DRV) != n || one.Samples != n {
		t.Errorf("got %d/%d samples, want %d", len(one.DRV), one.Samples, n)
	}
}

// TestMonteCarloSeedsDecorrelate makes sure different seeds produce
// different distributions (a chunkSeed regression guard).
func TestMonteCarloSeedsDecorrelate(t *testing.T) {
	cond := process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}
	a := MonteCarloWorkers(cond, mcChunk+1, 1, 2)
	b := MonteCarloWorkers(cond, mcChunk+1, 2, 2)
	if reflect.DeepEqual(a.DRV, b.DRV) {
		t.Error("seeds 1 and 2 produced identical distributions")
	}
}

// TestQuantilePinned pins Quantile to nearest-rank (round half away
// from zero) order statistics. The old floor-indexing biased high
// quantiles low on small samples: with 4 samples, q=0.9 indexed
// floor(2.7)=2 instead of round(2.7)=3.
func TestQuantilePinned(t *testing.T) {
	four := MonteCarloResult{DRV: []float64{0.1, 0.2, 0.3, 0.4}}
	five := MonteCarloResult{DRV: []float64{0.1, 0.2, 0.3, 0.4, 0.5}}
	cases := []struct {
		r    MonteCarloResult
		q    float64
		want float64
	}{
		{four, 0, 0.1},
		{four, 1, 0.4},
		{four, 0.5, 0.3},  // round(1.5) = 2
		{four, 0.9, 0.4},  // round(2.7) = 3; the old floor gave 0.3
		{four, 0.99, 0.4}, // round(2.97) = 3
		{five, 0.5, 0.3},  // exact middle
		{five, 0.9, 0.5},  // round(3.6) = 4
		{five, 0.75, 0.4}, // round(3) = 3
	}
	for _, c := range cases {
		if got := c.r.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) over %d samples = %g, want %g", c.q, len(c.r.DRV), got, c.want)
		}
	}
	empty := MonteCarloResult{}
	if empty.Quantile(0.5) != 0 {
		t.Error("empty distribution quantile should be 0")
	}
}
