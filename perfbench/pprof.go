package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a runtime/pprof CPU profile the benchmark
// attributes: each sample's stack as function names (leaf first, inlined
// frames expanded), its CPU nanoseconds and its string labels.
type profile struct {
	samples []sample
}

type sample struct {
	stack  []string
	cpuNs  int64
	labels map[string]string
}

// parseProfile decodes a gzipped profile.proto message as written by
// runtime/pprof. It reads only the fields named in profile; the format
// is documented in github.com/google/pprof/proto/profile.proto.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indexes
	}
	var (
		strs       []string
		valueTypes [][2]int64 // type, unit
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName   = map[uint64]int64{}    // function id -> name index
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, bb []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, bb)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, bb); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := walkFields(bb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(bb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, vt := range valueTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	p := &profile{}
	for _, rs := range samples {
		if cpu >= len(rs.values) {
			continue
		}
		s := sample{cpuNs: rs.values[cpu]}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		if len(rs.labels) > 0 {
			s.labels = map[string]string{}
			for _, kv := range rs.labels {
				s.labels[str(kv[0])] = str(kv[1])
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// walkFields calls fn for each field of a protobuf message: varint
// fields get v, length-delimited fields get b. Fixed-width fields are
// skipped (profile.proto has none the benchmark reads).
func walkFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(field, wire, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding:
// runtime/pprof packs long lists and writes short ones unpacked.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// internalPrefix is the import-path prefix of the program's layers.
const internalPrefix = "sramtest/internal/"

// layerOf maps a function name to its layer, the first path element
// under sramtest/internal ("engine/spicebe" counts as "engine"), or ""
// for functions outside the program's layers.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribution is a profile folded into per-layer CPU seconds.
type attribution struct {
	total float64            // all sampled CPU
	self  map[string]float64 // innermost program layer on the stack
	cum   map[string]float64 // samples with any listed entry point on the stack
	gc    float64            // garbage-collector work
}

// cumEntries names the entry points whose cumulative time is reported:
// a sample counts toward a group when any frame is one of the group's
// functions or a closure inside one.
var cumEntries = map[string][]string{
	"cell.dynamics": {
		"sramtest/internal/cell.(*Cell).FlipTime",
		"sramtest/internal/cell.(*Cell).FlipUnder",
		"sramtest/internal/cell.(*Cell).RetainsFor",
	},
	"cell.dc": {
		"sramtest/internal/cell.(*Cell).SNM0",
		"sramtest/internal/cell.(*Cell).SNM1",
		"sramtest/internal/cell.(*Cell).VTC1",
		"sramtest/internal/cell.(*Cell).VTC2",
		"sramtest/internal/cell.(*Cell).DRV0",
		"sramtest/internal/cell.(*Cell).DRV1",
	},
	"spice.solve": {
		"sramtest/internal/spice.OPInto",
		"sramtest/internal/spice.TranInto",
	},
	"march.run":          {"sramtest/internal/march.RunWith"},
	"faultmap.calibrate": {"sramtest/internal/faultmap.NewGenerator"},
}

// isGC reports whether a frame belongs to the collector's own work
// (background mark workers, mutator assists, sweeping, scavenging).
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || fn == "runtime.markrootSpans"
}

// attribute folds p: self time goes to the innermost program frame, so
// standard-library leaves (math.Exp, math.Log1p) and runtime helpers are
// charged to the program code that called them.
func attribute(p *profile) attribution {
	a := attribution{self: map[string]float64{}, cum: map[string]float64{}}
	for _, s := range p.samples {
		sec := float64(s.cpuNs) / 1e9
		a.total += sec
		for _, fn := range s.stack {
			if isGC(fn) {
				a.gc += sec
				break
			}
		}
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				a.self[l] += sec
				break
			}
		}
		for group, entries := range cumEntries {
			if stackHas(s.stack, entries) {
				a.cum[group] += sec
			}
		}
	}
	return a
}

func stackHas(stack, entries []string) bool {
	for _, fn := range stack {
		for _, e := range entries {
			if fn == e || strings.HasPrefix(fn, e+".func") {
				return true
			}
		}
	}
	return false
}
