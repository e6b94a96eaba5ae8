package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// Host-time shares: the traced run is CPU-profiled (runtime/pprof) and
// each sample is charged to a layer by the package of a frame on its
// stack (see hostShares). The profile is gzipped protobuf
// (github.com/google/pprof/proto/profile.proto); the standard library
// writes it but does not read it, so the few fields needed are decoded
// here.

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num  int
	val  uint64
	data []byte
}

// pbFields splits one protobuf message into fields. Fixed-width fields do
// not occur in the parts of a profile read here and are skipped.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("profile: bad varint")
			}
			f.val, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("profile: bad length")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return nil, fmt.Errorf("profile: wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField, into []uint64) []uint64 {
	if f.data == nil {
		return append(into, f.val)
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		into, b = append(into, v), b[n:]
	}
	return into
}

// stacks decodes a CPU profile into its samples: each a count and the
// call stack's function names, innermost frame first (inlined frames
// expanded).
func stacks(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> name string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type sample struct {
		locs  []uint64
		count uint64
	}
	var samples []sample
	for _, f := range top {
		if f.data == nil {
			continue
		}
		switch f.num {
		case 6: // string_table
			strs = append(strs, string(f.data))
		case 5: // Function{id=1, name=2}
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.val
				case 2:
					name = x.val
				}
			}
			funcName[id] = name
		case 4: // Location{id=1, line=4{function_id=1}}, lines innermost first
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.val
				case 4:
					ls, err := pbFields(x.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 2: // Sample{location_id=1 leaf first, value=2}; value[0] is the sample count
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					locs = pbInts(x, locs)
				case 2:
					vals = pbInts(x, vals)
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs, vals[0]})
			}
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: float64(s.count)}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := "?"
				if i := funcName[fn]; i < uint64(len(strs)) {
					name = strs[i]
				}
				st.frames = append(st.frames, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

type stackSample struct {
	count  float64
	frames []string // innermost first
}

// shareLayers are the layers a host-time share is reported for. Packages
// that the issue groups (kvstore with storage; ring and metrics with
// workload) share a layer; the benchmark's own code, the Go runtime and
// everything else get their own so the shares sum to 1.
var shareLayers = []string{
	"sim", "netsim", "openflow", "switchcache", "controller", "transport",
	"core", "storage", "workload", "cluster", "benchmark", "runtime", "other",
}

// layerOf maps a function name such as
// "repro/internal/sim.(*Simulator).drive" to its layer.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "(["); i >= 0 {
		pkg = pkg[:i] // receivers and type arguments may hold other packages' paths
	}
	if slash := strings.LastIndex(pkg, "/"); slash >= 0 {
		if dot := strings.Index(pkg[slash:], "."); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.Index(pkg, "."); dot >= 0 {
		pkg = pkg[:dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		switch p := strings.TrimPrefix(pkg, "repro/internal/"); p {
		case "kvstore":
			return "storage"
		case "ring", "metrics":
			return "workload"
		case "sim", "netsim", "openflow", "switchcache", "controller", "transport", "core", "storage", "workload", "cluster":
			return p
		}
		return "other"
	case pkg == "main" || strings.HasPrefix(pkg, "repro/benchmark"):
		return "benchmark"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// hostShares turns a CPU profile into <layer>.host_share values summing
// to 1 (all zero if the profile holds no samples). A sample is charged
// to the innermost frame that belongs to one of this repository's
// packages, so the allocator, map and goroutine-switch time a layer
// causes counts as that layer's; samples with no such frame (garbage
// collector workers, the scheduler) are the runtime's.
func hostShares(profile []byte) (map[string]float64, error) {
	samples, err := stacks(profile)
	if err != nil {
		return nil, err
	}
	by := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := "other"
		if len(s.frames) > 0 {
			layer = layerOf(s.frames[0])
		}
		for _, fn := range s.frames {
			if l := layerOf(fn); l != "runtime" && l != "other" {
				layer = l
				break
			}
		}
		by[layer] += s.count
		total += s.count
	}
	out := map[string]float64{}
	for _, l := range shareLayers {
		out[l+".host_share"] = ratio(by[l], total)
	}
	return out, nil
}
