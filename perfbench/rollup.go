package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// layers lists the repo modules a host-cost sample can be charged to, in
// report order. "runtime.sched" and "runtime.gc" hold samples with no repo
// frame at all; "other" holds the rest of the repo (facade, fault injector,
// plotting, stats) and the benchmark driver itself.
var layers = []string{
	"sim", "cpu", "mesh", "nic", "niq", "delivery", "glaze", "vm", "udm",
	"crl", "apps", "harness", "observers", "other",
}

// layerOfPackage maps a Go package path to its layer, or "" when the
// package is not part of the repo.
func layerOfPackage(pkg string) string {
	switch pkg {
	case "main", "fugu":
		return "other"
	}
	name, ok := strings.CutPrefix(pkg, "fugu/internal/")
	if !ok {
		return ""
	}
	switch name {
	case "metrics", "telemetry", "spans", "trace":
		return "observers"
	case "sim", "cpu", "mesh", "nic", "niq", "delivery", "glaze", "vm", "udm", "crl", "apps", "harness":
		return name
	}
	return "other"
}

// packageOf returns the package path of a fully qualified function name as
// the runtime reports it, e.g. "fugu/internal/sim.(*Proc).park" ->
// "fugu/internal/sim". Type arguments are dropped first because they may
// contain their own dotted paths.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// chargeLayer names the bucket a stack (innermost frame first) is charged
// to: the layer of its innermost repo frame, so runtime work such as
// malloc, channel operations and memmove lands on the repo code that caused
// it; "runtime.gc" for background GC workers; "runtime.sched" for every
// other stack with no repo frame (goroutine switching, idle scheduling).
func chargeLayer(stack []string) string {
	for _, fn := range stack {
		if l := layerOfPackage(packageOf(fn)); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" {
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

// rollup sums sample weights per bucket.
func rollup(stacks [][]string, weights []int64) map[string]int64 {
	out := make(map[string]int64)
	for i, st := range stacks {
		out[chargeLayer(st)] += weights[i]
	}
	return out
}

// cpuProfileStacks decodes a runtime/pprof CPU profile (gzipped
// profile.proto) into one function-name stack per sample, innermost frame
// first, with the sample counts as weights. Inlined frames are expanded,
// so a function inlined into another package's caller still counts for its
// own package.
func cpuProfileStacks(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		sampleLoc [][]uint64
		sampleVal [][]int64
	)
	err = walkProto(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := walkProto(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			sampleLoc = append(sampleLoc, locs)
			sampleVal = append(sampleVal, vals)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkProto(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkProto(b, func(f, w int, v uint64, b []byte) error {
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
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	stacks := make([][]string, len(sampleLoc))
	weights := make([]int64, len(sampleLoc))
	for i, locs := range sampleLoc {
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				if idx := funcName[f]; idx >= 0 && int(idx) < len(strs) {
					stacks[i] = append(stacks[i], strs[idx])
				}
			}
		}
		// The CPU profile's values are [samples, nanoseconds].
		if len(sampleVal[i]) > 0 {
			weights[i] = sampleVal[i][0]
		}
	}
	return stacks, weights, nil
}

// walkProto calls fn for every top-level field of a protobuf message: v
// holds varint and fixed values, b the payload of length-delimited fields.
func walkProto(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which the encoder
// writes either one per field (wire type 0) or packed (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// allocStacks reads the runtime's heap-allocation profile as stacks,
// innermost frame first, keyed by call-site program counters so two reads
// can be subtracted. Weights are allocated object counts. The caller runs
// runtime.GC first so the profile covers every allocation made so far.
func allocStacks() map[[32]uintptr]int64 {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// allocDelta charges the objects allocated between two allocStacks reads to
// layers.
func allocDelta(before, after map[[32]uintptr]int64) map[string]int64 {
	var stacks [][]string
	var weights []int64
	for key, objects := range after {
		d := objects - before[key]
		if d <= 0 {
			continue
		}
		stacks = append(stacks, symbolize(key))
		weights = append(weights, d)
	}
	return rollup(stacks, weights)
}

// symbolize expands a profile stack's program counters into function
// names, inlined frames included, innermost first.
func symbolize(pcs [32]uintptr) []string {
	n := 0
	for n < len(pcs) && pcs[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(pcs[:n])
	var names []string
	for {
		f, more := frames.Next()
		if f.Function != "" {
			names = append(names, f.Function)
		}
		if !more {
			return names
		}
	}
}
