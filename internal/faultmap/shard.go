package faultmap

import (
	"fmt"
	"strings"

	"sramtest/internal/process"
	"sramtest/internal/sweep"
)

// PartialVersion tags the Partial wire format; a merger refuses any
// other version rather than silently misreading future fields.
const PartialVersion = 1

// Partial is one shard's share of a corpus evaluation: the job header,
// the (shard-invariant) DRV calibration, and the per-chunk statistics
// of the chunks the shard owns (index ≡ Shard mod Shards). All fields
// are exact-roundtrip JSON, so a merged evaluation is byte-identical to
// the unsharded run.
type Partial struct {
	Version int               `json:"version"`
	Cond    process.Condition `json:"cond"`
	Vref    float64           `json:"vref"`
	Maps    int               `json:"maps"`
	Seed    int64             `json:"seed"`
	Defect  float64           `json:"defect"`
	Engine  string            `json:"engine"`
	Tests   []string          `json:"tests"`
	Shards  int               `json:"shards"`
	Shard   int               `json:"shard"`
	Calib   Calib             `json:"calib"`
	Chunks  []ChunkStat       `json:"chunks"`
}

// mergeHeader is everything besides the shard placement that must
// agree across a shard set: the job parameters (the test list joined
// on an unprintable separator, to stay comparable) and the calibration.
type mergeHeader struct {
	Cond   process.Condition
	Vref   float64
	Maps   int
	Seed   int64
	Defect float64
	Engine string
	Tests  string
	Calib  Calib
}

// part is the merge view of p.
func (p Partial) part() sweep.Part[mergeHeader, ChunkStat] {
	return sweep.Part[mergeHeader, ChunkStat]{
		Version: p.Version, Shards: p.Shards, Shard: p.Shard,
		Header: mergeHeader{p.Cond, p.Vref, p.Maps, p.Seed, p.Defect, p.Engine, strings.Join(p.Tests, "\x1f"), p.Calib},
		Units:  (p.Maps + MapChunk - 1) / MapChunk, Stats: p.Chunks,
	}
}

// MergePartials reassembles a full corpus evaluation from one partial
// per shard, validated by the shared sweep.Merge contract plus one
// tally per test in every chunk, through the same chunk-ordered
// finalize as a local run — reproducing its bytes exactly.
func MergePartials(parts []Partial) (Result, error) {
	chunks, err := sweep.Merge(parts, PartialVersion, Partial.part, func(st ChunkStat) int { return st.Chunk })
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	merged := parts[0]
	for _, st := range chunks {
		if len(st.Tests) != len(merged.Tests) {
			return Result{}, fmt.Errorf("%w: chunk %d carries %d tallies for %d tests", ErrBadParams, st.Chunk, len(st.Tests), len(merged.Tests))
		}
	}
	merged.Shards, merged.Shard, merged.Chunks = 1, 0, chunks
	return finalize(merged), nil
}
