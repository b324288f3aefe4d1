package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the packages under internal/ whose self CPU the traced run
// reports. A profile sample is charged to the innermost frame on its stack
// that belongs to one of them, so standard-library callees count toward the
// module that called them (json.Marshal under the outbox counts as store,
// conn.Write under the XMPP client as xmpp).
var modules = []string{
	"android", "assign", "cluster", "core", "energy", "env", "experiments",
	"faultnet", "fleet", "geo", "msg", "obs", "pubsub", "radio", "scenario",
	"sched", "script", "sensors", "store", "tail", "transport", "vclock", "xmpp",
}

const (
	modulePrefix = "pogo/internal/"
	gcBucket     = "runtime.gc"
	otherBucket  = "other"
)

// gcWorkers are the runtime's background collector goroutines. A sample
// with one of them on its stack and no module frame is GC work no module
// asked for directly; GC assists run under the allocating module's frames.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// stack is one profile sample: function names from the innermost frame
// (inlined frames included) to the outermost, and the CPU it stands for.
type stack struct {
	frames []string
	ns     int64
}

// moduleOf returns the internal module a function belongs to, or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// bucketOf names the bucket a stack's CPU is charged to.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	for _, f := range frames {
		for _, w := range gcWorkers {
			if f == w {
				return gcBucket
			}
		}
	}
	return otherBucket
}

// foldResult is CPU nanoseconds per bucket and the profile's total.
type foldResult struct {
	ns    map[string]int64
	total int64
}

func fold(stacks []stack) foldResult {
	r := foldResult{ns: make(map[string]int64)}
	for _, s := range stacks {
		r.ns[bucketOf(s.frames)] += s.ns
		r.total += s.ns
	}
	return r
}

// foldPerOp turns a fold into <bucket>.cpu_us_per_op metrics, one for every
// listed module (0 when it never ran), and checks that the buckets add up to
// the profile total. A module outside the list would be missed; it is
// reported as an error rather than silently dropped.
func foldPerOp(r foldResult, ops int64) (map[string]float64, error) {
	if ops <= 0 {
		return nil, errors.New("fold: no operations")
	}
	known := map[string]bool{gcBucket: true, otherBucket: true}
	for _, m := range modules {
		known[m] = true
	}
	var sum int64
	for b, ns := range r.ns {
		if !known[b] {
			return nil, fmt.Errorf("fold: module %q is not in the module list", b)
		}
		sum += ns
	}
	if sum != r.total {
		return nil, fmt.Errorf("fold: buckets add up to %d ns, profile total is %d ns", sum, r.total)
	}
	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / float64(ops) }
	out := map[string]float64{
		gcBucket + ".cpu_us_per_op":    perOp(r.ns[gcBucket]),
		otherBucket + ".cpu_us_per_op": perOp(r.ns[otherBucket]),
		"profile.cpu_us_per_op":        perOp(r.total),
	}
	for _, m := range modules {
		out[m+".cpu_us_per_op"] = perOp(r.ns[m])
	}
	return out, nil
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof writes
// into stacks, using the sample value typed cpu/nanoseconds. Only the fields
// the fold needs are read: samples, locations (with inlined lines),
// functions, sample types and the string table.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		types     [][2]int64              // (type, unit) string indices
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → name string index
		strs      []string
	)
	err = walkFields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s sample
			err := walkFields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
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
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	vi := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample lacks the cpu value")
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				frames = append(frames, str(funcNames[fn]))
			}
		}
		out = append(out, stack{frames: frames, ns: s.values[vi]})
	}
	return out, nil
}

// walkFields calls fn for each field of a protobuf message: varint fields
// with their value, length-delimited fields with their bytes. Fixed-width
// fields are skipped (profile.proto's fields of interest use neither).
func walkFields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
