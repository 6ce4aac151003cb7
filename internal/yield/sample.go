package yield

import (
	"math"
	"math/rand"

	"sramtest/internal/num"
	"sramtest/internal/process"
)

// The variation law of the yield estimators: each of the six ΔVth
// components is an independent standard normal conditioned to [−6σ,
// +6σ] — the same ±6σ support the paper's deterministic worst case
// spans. (exp.MonteCarloCtx clamps instead of conditioning; the two laws
// differ only by ~1e-8 of probability mass parked exactly on the
// support faces, but conditioning keeps every likelihood ratio finite
// and well-defined, which clamping's point masses would not.)
const sigmaTrunc = 6.0

// logZ returns log(Φ(6−mu) − Φ(−6−mu)), the log normalization of one
// N(mu, 1) component conditioned to the support. For mu = 0 this is
// ~−1.2e-8: even the unshifted law is (barely) renormalized.
func logZ(mu float64) float64 {
	z := num.NormCDF(sigmaTrunc-mu) - num.NormCDF(-sigmaTrunc-mu)
	return math.Log(z)
}

// sampleShifted draws one variation from the shifted truncated law:
// component t is N(mu[t], 1) conditioned to the support, by rejection.
// The rejection loop consumes a variable — but chunk-deterministic —
// number of rng draws, so chunk-sharded streams stay reproducible.
func sampleShifted(rng *rand.Rand, mu process.Variation) process.Variation {
	var v process.Variation
	for t := range v {
		for {
			x := mu[t] + rng.NormFloat64()
			if x >= -sigmaTrunc && x <= sigmaTrunc {
				v[t] = x
				break
			}
		}
	}
	return v
}

// The proposal is a three-component defensive mixture (Hesterberg):
// the truncated law shifted onto the failure boundary, its mirror
// image (the stored-'0' failure lobe), and — with weight alphaDefense —
// the unshifted target law itself. The defensive component bounds every
// likelihood ratio by 1/alphaDefense, which keeps the self-normalized
// denominator Σw concentrated and the effective sample size near
// n·alphaDefense instead of the n·e^{−|μ|²} collapse a pure boundary
// shift suffers. Its near-origin draws are almost always absorbed by
// the surrogate screen, so the robustness is nearly free in exact
// solves.
const (
	alphaDefense = 0.10
	numComp      = 3
)

// proposal is the precomputed defensive mixture.
type proposal struct {
	mu     [numComp]process.Variation
	logA   [numComp]float64 // log component weights
	cdf    [numComp]float64 // component-selection thresholds
	logZmu [numComp][process.NumCellTransistors]float64
	logZ0  float64 // 6 · logZ(0): the target law's normalization
}

// newProposal precomputes the mixture around boundary shift mu. A zero
// mu degenerates gracefully: all components coincide with the target
// and every weight is exactly 1.
func newProposal(mu process.Variation) *proposal {
	p := &proposal{mu: [numComp]process.Variation{{}, mu, mu.Mirror()}}
	alpha := [numComp]float64{alphaDefense, (1 - alphaDefense) / 2, (1 - alphaDefense) / 2}
	acc := 0.0
	for k := 0; k < numComp; k++ {
		p.logA[k] = math.Log(alpha[k])
		acc += alpha[k]
		p.cdf[k] = acc
		for t := range p.mu[k] {
			p.logZmu[k][t] = logZ(p.mu[k][t])
		}
	}
	p.logZ0 = float64(process.NumCellTransistors) * logZ(0)
	return p
}

// draw samples one variation from the mixture. One uniform selects the
// component, so the stream stays chunk-deterministic.
func (p *proposal) draw(rng *rand.Rand) process.Variation {
	u := rng.Float64()
	k := 0
	for k < numComp-1 && u >= p.cdf[k] {
		k++
	}
	return sampleShifted(rng, p.mu[k])
}

// logWeight returns the log likelihood ratio log(target(v)/mixture(v)).
// The (2π)^{-3} Gaussian prefactors cancel between numerator and
// denominator, leaving exponents and truncation normalizations. The
// defensive component caps the result at −log(alphaDefense) ≈ 2.3.
func (p *proposal) logWeight(v process.Variation) float64 {
	var lp float64 // target log density (up to the shared prefactor)
	for _, x := range v {
		lp -= x * x / 2
	}
	lp -= p.logZ0

	var lq [numComp]float64 // weighted component log densities
	for k := 0; k < numComp; k++ {
		lq[k] = p.logA[k]
		for t, x := range v {
			d := x - p.mu[k][t]
			lq[k] -= d*d/2 + p.logZmu[k][t]
		}
	}
	// log mixture = logsumexp over the weighted components.
	m := math.Max(lq[0], math.Max(lq[1], lq[2]))
	sum := 0.0
	for k := 0; k < numComp; k++ {
		sum += math.Exp(lq[k] - m)
	}
	return lp - (m + math.Log(sum))
}
