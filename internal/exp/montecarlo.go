package exp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sramtest/internal/cell"
	"sramtest/internal/num"
	"sramtest/internal/process"
	"sramtest/internal/report"
	"sramtest/internal/sweep"
)

// MonteCarloResult summarizes a sampled DRV distribution (EXP-MC): the
// statistical backdrop of Section III — within-die variation makes the
// array's retention voltage the maximum over millions of cells, which is
// why the paper constructs the deterministic 6σ worst case instead of
// sampling.
type MonteCarloResult struct {
	Cond    process.Condition
	Samples int
	DRV     []float64 // sorted per-cell max(DRV0, DRV1)
}

// mcChunk is the number of samples drawn from one derived RNG stream.
// Sharding is by chunk index — not by worker — so the sampled multiset
// is a pure function of (n, seed) and identical for any worker count.
const mcChunk = 16

// MonteCarloWorkers samples n random cells (independent normal ΔVth per
// transistor, truncated at ±6σ) at one condition and returns their
// retention-voltage distribution. Chunks of samples are evaluated in
// parallel on the sweep engine, each chunk with its own rand.Source
// derived from the seed, on at most workers workers (0 = process
// default). The result does not depend on workers.
func MonteCarloWorkers(cond process.Condition, n int, seed int64, workers int) MonteCarloResult {
	res, _ := MonteCarloCtx(context.Background(), cond, n, seed, workers)
	return res
}

// MonteCarloCtx is MonteCarloWorkers under a context: chunks not yet
// sampled when ctx is done are skipped and the ctx error is returned
// (the partial distribution is not meaningful and is dropped). The
// sampled multiset of a completed run is a pure function of (n, seed),
// for any worker count.
func MonteCarloCtx(ctx context.Context, cond process.Condition, n int, seed int64, workers int) (MonteCarloResult, error) {
	res := MonteCarloResult{Cond: cond, Samples: n}
	if n <= 0 {
		return res, nil
	}
	chunks := (n + mcChunk - 1) / mcChunk
	drv, err := sweep.MapCtx(ctx, chunks, func(c int) ([]float64, error) {
		rng := rand.New(rand.NewSource(sweep.ChunkSeed(seed, c)))
		lo, hi := c*mcChunk, (c+1)*mcChunk
		if hi > n {
			hi = n
		}
		out := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			v := process.RandomVariation(rng)
			cl := cell.New(v, cond)
			out = append(out, math.Max(cl.DRV0(), cl.DRV1()))
		}
		return out, nil
	}, sweep.Workers(workers))
	if err != nil {
		return MonteCarloResult{Cond: cond, Samples: n}, err
	}
	for _, chunk := range drv {
		res.DRV = append(res.DRV, chunk...)
	}
	sort.Float64s(res.DRV)
	return res, nil
}

// Quantile returns the q-quantile (0..1) of the sampled distribution,
// rounding to the nearest order statistic (half away from zero) so small
// samples do not bias high quantiles low.
func (r MonteCarloResult) Quantile(q float64) float64 {
	if len(r.DRV) == 0 {
		return 0
	}
	idx := int(math.Round(q * float64(len(r.DRV)-1)))
	if idx < 0 {
		idx = 0
	}
	if idx > len(r.DRV)-1 {
		idx = len(r.DRV) - 1
	}
	return r.DRV[idx]
}

// QuantileCI returns a distribution-free confidence interval on the
// q-quantile at confidence conf (e.g. 0.95): the order-statistic
// bracket [x(l), x(u)] whose ranks come from the normal approximation
// of the Binomial(n, q) rank distribution. It makes no assumption
// about the DRV distribution's shape, so the naive-MC baseline reports
// honest uncertainty the yield estimators can be compared against.
// Ranks are clamped to the sample, so extreme quantiles of small
// samples degrade to the sample extremes rather than lying.
func (r MonteCarloResult) QuantileCI(q, conf float64) (lo, hi float64) {
	n := len(r.DRV)
	if n == 0 {
		return 0, 0
	}
	z := num.NormQuantile(0.5 + conf/2)
	mean := q * float64(n)
	half := z * math.Sqrt(float64(n)*q*(1-q))
	l := int(math.Floor(mean - half))
	u := int(math.Ceil(mean + half))
	if l < 0 {
		l = 0
	}
	if u > n-1 {
		u = n - 1
	}
	return r.DRV[l], r.DRV[u]
}

// Max returns the worst sampled cell.
func (r MonteCarloResult) Max() float64 {
	if len(r.DRV) == 0 {
		return 0
	}
	return r.DRV[len(r.DRV)-1]
}

// ci renders a QuantileCI bracket for the report.
func (r MonteCarloResult) ci(q float64) string {
	lo, hi := r.QuantileCI(q, 0.95)
	return fmt.Sprintf("[%s, %s]", report.SI(lo, "V"), report.SI(hi, "V"))
}

// MonteCarloReport renders the distribution summary against the
// deterministic worst case. Quantile rows carry the distribution-free
// 95% order-statistic interval of QuantileCI, so the sampled numbers
// are never quoted with more certainty than n supports.
func MonteCarloReport(r MonteCarloResult, worstCase float64) *report.Table {
	t := report.NewTable("EXP-MC — sampled per-cell DRV_DS distribution", "Statistic", "DRV_DS", "95% CI")
	t.AddRow("condition", r.Cond.String())
	t.AddRow("samples", report.SI(float64(r.Samples), ""))
	t.AddRow("median", report.SI(r.Quantile(0.5), "V"), r.ci(0.5))
	t.AddRow("90th percentile", report.SI(r.Quantile(0.9), "V"), r.ci(0.9))
	t.AddRow("99th percentile", report.SI(r.Quantile(0.99), "V"), r.ci(0.99))
	t.AddRow("sampled max", report.SI(r.Max(), "V"))
	t.AddRow("deterministic 6σ worst case", report.SI(worstCase, "V"))
	return t
}

// NewWorstDRVForTest exposes the deterministic worst-case DRV at one
// condition for the test suite and reports.
func NewWorstDRVForTest(cond process.Condition) float64 {
	return cell.New(process.WorstCase1(), cond).DRV1()
}
