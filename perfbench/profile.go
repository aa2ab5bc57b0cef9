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

// cpuLayers are the layers a CPU profile is folded into. "trace" is the
// measurement itself: the simulator's tracer, the benchmark's hooks and
// samplers, and the profiler.
var cpuLayers = []string{
	"sim", "netsim", "lockmgr", "cache", "pagefile", "server", "client",
	"loadshare", "forward", "batch", "occ", "rtdbs", "rng", "txn",
	"runtime", "trace", "other",
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if l, ok := strings.CutPrefix(pkg, "siteselect/internal/"); ok {
		switch l {
		case "sched":
			return "client" // executor queues and the ATL belong to the client
		case "sim", "netsim", "lockmgr", "cache", "pagefile", "server", "client",
			"loadshare", "forward", "batch", "occ", "rtdbs", "rng", "txn", "trace":
			return l
		}
		return "other"
	}
	switch {
	case pkg == "main" || pkg == "siteselect/perfbench" || strings.HasPrefix(pkg, "runtime/pprof") ||
		pkg == "runtime/metrics":
		return "trace"
	case pkg == "math/rand":
		return "rng"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// packageOf returns the import path of a Go symbol such as
// "siteselect/internal/sim.(*Mailbox[...]).Get".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// addCPUNanos folds a gzipped pprof CPU profile into nanos: sampled CPU
// time per layer, counting each sample against its innermost frame
// (self time, inlined functions resolved).
func addCPUNanos(nanos map[string]float64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]uint64{} // function id -> string table index
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
	)
	// Field numbers are those of perftools.profiles.Profile.
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				if num != 1 && num != 2 {
					return nil
				}
				vals, err := varints(v, b)
				switch {
				case err != nil || len(vals) == 0:
				case num == 1: // location_id, leaf first
					if first {
						s.loc, first = vals[0], false
					}
				case num == 2: // value: the last sample type is CPU nanoseconds
					s.value = int64(vals[len(vals)-1])
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			seen := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line, innermost inlined function first
					if seen {
						return nil
					}
					seen = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
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
		return err
	}
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.loc]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		nanos[layerOf(name)] += float64(s.value)
	}
	return nil
}

// cpuShares turns per-layer CPU time into percentages of the total, one
// entry per layer of cpuLayers.
func cpuShares(nanos map[string]float64) map[string]float64 {
	var total float64
	for _, v := range nanos {
		total += v
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 100 * ratio(nanos[l], total)
	}
	return shares
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields calls fn for each field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func fields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field, packed (b set) or single.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out, b = append(out, x), b[n:]
	}
	return out, nil
}
