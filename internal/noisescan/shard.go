package noisescan

import (
	"fmt"

	"sramtest/internal/engine"
	"sramtest/internal/process"
	"sramtest/internal/sweep"
)

// PartialVersion tags the Partial wire format; a merger refuses any
// other version rather than silently misreading future fields.
const PartialVersion = 1

// Calib is the shard-invariant threshold pair that travels with every
// Partial: the static DRV anchoring the scan grid and the noise
// criterion's effective DRV under the scan's own ensemble parameters.
// Both are pure functions of (case study, cond, noise params), so every
// shard computes the identical Calib; MergePartials verifies that
// instead of trusting it.
type Calib struct {
	CS        string  `json:"cs"`
	StaticDRV float64 `json:"staticDRV"`
	EffDRV    float64 `json:"effDRV"`
}

// Partial is one shard's share of a scan: the job header, the
// (shard-invariant) calibration, and the raw tallies of the rail points
// the shard owns (index ≡ Shard mod Shards). It is the artifact a
// sharded noisescan job emits and the unit MergePartials consumes; all
// fields are exact-roundtrip JSON, so a merged scan is byte-identical
// to the unsharded run.
type Partial struct {
	Version   int                `json:"version"`
	CaseStudy int                `json:"caseStudy"`
	Cond      process.Condition  `json:"cond"`
	Points    int                `json:"points"`
	Below     float64            `json:"below"`
	Above     float64            `json:"above"`
	Noise     engine.NoiseParams `json:"noise"`
	Shards    int                `json:"shards"`
	Shard     int                `json:"shard"`
	Calib     Calib              `json:"calib"`
	Stats     []PointStat        `json:"stats"`
}

// mergeHeader is everything besides the shard placement that must
// agree across a shard set: the job parameters and the calibration.
type mergeHeader struct {
	CaseStudy int
	Cond      process.Condition
	Points    int
	Below     float64
	Above     float64
	Noise     engine.NoiseParams
	Calib     Calib
}

// part is the merge view of p.
func (p Partial) part() sweep.Part[mergeHeader, PointStat] {
	return sweep.Part[mergeHeader, PointStat]{
		Version: p.Version, Shards: p.Shards, Shard: p.Shard,
		Header: mergeHeader{p.CaseStudy, p.Cond, p.Points, p.Below, p.Above, p.Noise, p.Calib},
		Units:  p.Points, Stats: p.Stats,
	}
}

// MergePartials reassembles a full scan from one partial per shard,
// validated by the shared sweep.Merge contract, through the same
// point-ordered finalize as a local run — reproducing its bytes
// exactly.
func MergePartials(parts []Partial) (Result, error) {
	stats, err := sweep.Merge(parts, PartialVersion, Partial.part, func(st PointStat) int { return st.Point })
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	merged := parts[0]
	merged.Shards, merged.Shard, merged.Stats = 1, 0, stats
	return finalize(merged), nil
}
