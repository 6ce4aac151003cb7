package yield

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"sramtest/internal/num"
	"sramtest/internal/process"
	"sramtest/internal/sweep"
)

// ChunkStat carries the mergeable sufficient statistics of one sampling
// chunk: the weighted-sample sums of the self-normalized estimator plus
// the screen-economy tallies. Chunks are reduced strictly in index
// order by finalize, so a merged cluster run reproduces the local run's
// float operations — and therefore its bytes — exactly.
type ChunkStat struct {
	Chunk int `json:"chunk"`
	N     int `json:"n"`
	// SumW, SumW2 are Σw and Σw²; SumWI and SumW2I restrict the sums to
	// failing samples (w ≡ 1 for the blockade estimator).
	SumW   float64 `json:"sumW"`
	SumW2  float64 `json:"sumW2"`
	SumWI  float64 `json:"sumWI"`
	SumW2I float64 `json:"sumW2I"`
	// Fails counts exact-confirmed failures; Screens band decisions that
	// skipped the solve; Escalations band decisions that did not; Solves
	// the exact DRV bisections spent on confirmations.
	Fails       int   `json:"fails"`
	Screens     int64 `json:"screens"`
	Escalations int64 `json:"escalations"`
	Solves      int64 `json:"solves"`
}

// runChunk samples one chunk through the screen. shifted selects the
// importance-sampling mixture proposal; otherwise the unshifted
// truncated law with unit weights (statistical blockade).
func runChunk(p Params, s *screen, prop *proposal, shifted bool, c int) ChunkStat {
	st := ChunkStat{Chunk: c}
	lo, hi := c*Chunk, (c+1)*Chunk
	if hi > p.Samples {
		hi = p.Samples
	}
	rng := rand.New(rand.NewSource(sweep.ChunkSeed(p.Seed, c)))
	var zero process.Variation
	for i := lo; i < hi; i++ {
		var v process.Variation
		w := 1.0
		if shifted {
			v = prop.draw(rng)
			w = math.Exp(prop.logWeight(v))
		} else {
			v = sampleShifted(rng, zero)
		}

		fail := false
		if band := s.band(v); band.Hi < p.Vref {
			st.Screens++ // whole band clears: certain pass
		} else {
			st.Escalations++
			d := p.Model.DRV1(v, p.Cond)
			st.Solves++
			fail = d > p.Vref
			if !fail {
				d0 := p.Model.DRV1(v.Mirror(), p.Cond)
				st.Solves++
				fail = d0 > p.Vref
			}
		}

		st.N++
		st.SumW += w
		st.SumW2 += w * w
		if fail {
			st.Fails++
			st.SumWI += w
			st.SumW2I += w * w
		}
	}
	return st
}

// run executes the shared estimator engine: calibrate the screen and
// fan the chunks p's shard owns over the sweep engine. method/shifted
// distinguish the two estimators.
func run(ctx context.Context, p Params, method string, shifted bool) (Partial, error) {
	p, err := p.withDefaults()
	if err != nil {
		return Partial{}, err
	}
	s := calibrate(p.Model, p.Cond, p.Vref, p.Seed)
	prop := newProposal(s.shift)
	part := Partial{
		Version: PartialVersion,
		Method:  method,
		Cond:    p.Cond,
		Vref:    p.Vref,
		Samples: p.Samples,
		Seed:    p.Seed,
		Shards:  p.Shards,
		Shard:   p.Shard,
		Calib:   s.export(),
	}
	if !part.Certified() {
		part.Chunks, err = sweep.MapOwned(ctx, (p.Samples+Chunk-1)/Chunk, p.Shards, p.Shard, func(c int) (ChunkStat, error) {
			return runChunk(p, s, prop, shifted, c), nil
		}, sweep.Workers(p.Workers))
		if err != nil {
			return Partial{}, err
		}
	}
	return part, nil
}

// estimate runs a whole estimate (Params.Shards <= 1).
func estimate(ctx context.Context, p Params, method string, shifted bool) (Result, error) {
	if err := sweep.CheckWhole(p.Shards); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	part, err := run(ctx, p, method, shifted)
	if err != nil {
		return Result{}, err
	}
	res := finalize(part)
	countRun(res)
	return res, nil
}

// partial runs one shard of an estimate (Params.Shards >= 2).
func partial(ctx context.Context, p Params, method string, shifted bool) (Partial, error) {
	if err := sweep.CheckShard(p.Shards, p.Shard); err != nil {
		return Partial{}, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	part, err := run(ctx, p, method, shifted)
	if err != nil {
		return Partial{}, err
	}
	countPartial(part)
	return part, nil
}

// finalize reduces the chunk statistics — strictly in chunk order — to
// the reported Result. It is the single reduction path shared by the
// local, daemon, and cluster-merged runs.
func finalize(part Partial) Result {
	res := Result{
		Method:         part.Method,
		Cond:           part.Cond,
		Vref:           part.Vref,
		Samples:        part.Samples,
		Seed:           part.Seed,
		Shift:          part.Calib.Shift,
		ShiftNorm:      part.Calib.ShiftNorm,
		Threshold:      part.Vref - part.Calib.Margin,
		CalSolves:      part.Calib.CalSolves,
		BoundarySolves: part.Calib.BoundarySolves,
	}
	if part.Method == MethodBlockade {
		res.Shift, res.ShiftNorm = process.Variation{}, 0
	}
	res.ExactSolves = res.CalSolves + res.BoundarySolves

	if part.Certified() {
		// SigmaEquiv stays 0: the depth of an empty tail is undefined
		// (and +Inf would not survive the Partial's JSON round-trip).
		res.Certificate = "no failure inside the ±6σ variation support: " +
			"worst support corner and band-widened linear maximum both retain below Vref"
		return res
	}

	var sumW, sumW2, sumWI, sumW2I float64
	for _, st := range part.Chunks {
		sumW += st.SumW
		sumW2 += st.SumW2
		sumWI += st.SumWI
		sumW2I += st.SumW2I
		res.Failures += st.Fails
		res.Screens += st.Screens
		res.Escalations += st.Escalations
		res.ExactSolves += st.Solves
	}
	if sumW <= 0 {
		return res
	}

	ess := sumW * sumW / sumW2
	res.ESS = ess
	p := sumWI / sumW
	res.P = p
	if p > 0 {
		res.SigmaEquiv = num.NormQuantile(1 - p)
	}

	if res.Failures == 0 {
		// No confirmed failure: the point estimate is 0 and the only
		// honest bracket is the Wilson upper bound at the effective
		// sample size. Naive-equivalence is undefined without a width.
		_, hi := num.WilsonInterval(0, int(ess), zCrit)
		res.CIHi = hi
		return res
	}

	// Self-normalized delta-method error: √(Σw²(I−p)²) / Σw. For rare p
	// this reduces to p/√essF with essF = (ΣwI)²/Σw²I — the effective
	// number of failure observations — so the interval is ESS-aware by
	// construction: a handful of dominant failure weights shows up
	// directly as a wide CI.
	varNum := sumW2I*(1-2*p) + p*p*sumW2
	se := math.Sqrt(math.Max(varNum, 0)) / sumW
	res.SE = se
	res.CILo = math.Max(0, p-zCrit*se)
	res.CIHi = math.Min(1, p+zCrit*se)

	if se > 0 {
		// A naive Monte-Carlo run matching this CI width needs
		// p(1−p)/se² samples at two full DRV bisections each.
		res.NaiveSolves = 2 * p * (1 - p) / (se * se)
		if res.ExactSolves > 0 {
			res.Speedup = res.NaiveSolves / float64(res.ExactSolves)
		}
	}
	return res
}
