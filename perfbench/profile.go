package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileAgg sums CPU-profile samples by the layer of their leaf frame. The
// layers are this repository's modules; runtime frames are split by what
// the stack above them is doing (GC, allocation, goroutine switch, other).
type profileAgg struct {
	ns map[string]int64 // CPU nanoseconds per layer metric name
}

func newProfileAgg() *profileAgg { return &profileAgg{ns: map[string]int64{}} }

// Modules with their own self_cpu_frac metric. Repository modules not
// listed here count as "other".
var ownLayers = map[string]bool{
	"sim": true, "payload": true, "mpi": true, "ib": true, "npb": true, "core": true,
	"cr": true, "blcr": true, "vfs": true, "obs": true, "fleet": true, "ftmodel": true, "exp": true,
}

// runtimeCategories mark a runtime-leaf stack as GC, allocation or
// goroutine switch work by any of its frames. The first category that
// matches wins, so the order matters: GC assists run inside mallocgc.
var runtimeCategories = []struct {
	metric string
	frames []string
}{
	{"runtime.gc_self_cpu_frac", []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.markroot",
		"runtime.scanobject", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.wbBufFlush",
		"runtime.deductSweepCredit", "runtime.(*mspan).sweep", "runtime.(*sweepLocked).sweep",
	}},
	{"runtime.alloc_cpu_frac", []string{"runtime.mallocgc", "runtime.growslice"}},
	{"sim.switch_cpu_frac", []string{
		"runtime.gopark", "runtime.goready", "runtime.mcall", "runtime.park_m", "runtime.schedule",
		"runtime.findRunnable", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
		"runtime.ready", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep",
		"runtime.notewakeup", "runtime.goexit0", "runtime.gosched_m", "runtime.goschedImpl",
		"runtime.exitsyscall", "runtime.entersyscall",
	}},
}

// layerOf maps a sample's stack (leaf first) to the metric its CPU time
// counts towards.
func layerOf(stack []string) string {
	pkg := packageOf(stack[0])
	switch {
	case pkg == "container/heap":
		return "sim.heap_cpu_frac"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		for _, cat := range runtimeCategories {
			for _, fn := range stack {
				for _, f := range cat.frames {
					if strings.HasPrefix(fn, f) {
						return cat.metric
					}
				}
			}
		}
		return "runtime.other_cpu_frac"
	case strings.HasPrefix(pkg, "ibmig/internal/"):
		mod := strings.TrimPrefix(pkg, "ibmig/internal/")
		if mod == "mem" {
			mod = "payload" // the region layer over the payload extent tree
		}
		if ownLayers[mod] {
			return mod + ".self_cpu_frac"
		}
	case !strings.HasPrefix(pkg, "ibmig/"):
		return "stdlib.self_cpu_frac"
	}
	return "other.self_cpu_frac"
}

// packageOf returns the import path of a symbolized function name such as
// "ibmig/internal/sim.(*Queue[...]).Put".
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

// fractions returns each layer metric's share of the profiled CPU time.
func (a *profileAgg) fractions() map[string]float64 {
	var total int64
	for _, v := range a.ns {
		total += v
	}
	f := map[string]float64{}
	if total == 0 {
		return f
	}
	for k, v := range a.ns {
		f[k] = float64(v) / float64(total)
	}
	return f
}

// add decodes one gzip-compressed profile.proto CPU profile, as written by
// runtime/pprof, and adds its samples' CPU time to the layers.
func (a *profileAgg) add(gz []byte) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	// The CPU profile's sample values are [samples count, cpu nanoseconds].
	vi := p.nTypes - 1
	for _, s := range p.samples {
		if len(s.locs) == 0 || vi < 0 || vi >= len(s.values) {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			stack = append(stack, p.locFuncs[l]...)
		}
		if len(stack) == 0 {
			continue
		}
		a.ns[layerOf(stack)] += s.values[vi]
	}
	return nil
}

// profile is the part of profile.proto the aggregation reads.
type profile struct {
	nTypes   int // sample_type entries
	samples  []sample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// protobuf wire types
const (
	wireVarint = 0
	wireI64    = 1
	wireLen    = 2
	wireI32    = 5
)

var errTruncated = errors.New("profile: truncated")

// pbReader walks the fields of one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field's number and wire type, with its varint value
// or its length-delimited payload.
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case wireVarint:
		v, err = r.varint()
	case wireI64, wireI32:
		n := 8
		if wire == wireI32 {
			n = 4
		}
		if len(r.b) < n {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[n:]
	case wireLen:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return field, wire, v, data, err
}

// uints decodes a repeated integer field, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]string{}}
	var strs []string
	locLines := map[uint64][]uint64{} // location id -> function ids
	funcName := map[uint64]uint64{}   // function id -> string index
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 1: // sample_type
			p.nTypes++
		case 2: // sample
			s, err := decodeSample(data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			id, fns, err := decodeLocation(data)
			if err != nil {
				return nil, err
			}
			locLines[id] = fns
		case 5: // function
			id, name, err := decodeFunction(data)
			if err != nil {
				return nil, err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	for id, fns := range locLines {
		for _, f := range fns {
			if si, ok := funcName[f]; ok && si < uint64(len(strs)) {
				p.locFuncs[id] = append(p.locFuncs[id], strs[si])
			}
		}
	}
	return p, nil
}

func decodeSample(b []byte) (sample, error) {
	var s sample
	var vals []uint64
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, v, data, err := r.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			if s.locs, err = uints(s.locs, wire, v, data); err != nil {
				return s, err
			}
		case 2:
			if vals, err = uints(vals, wire, v, data); err != nil {
				return s, err
			}
		}
	}
	for _, x := range vals {
		s.values = append(s.values, int64(x))
	}
	return s, nil
}

// decodeLocation returns a location's id and the function ids of its lines,
// innermost inlined function first.
func decodeLocation(b []byte) (id uint64, fns []uint64, err error) {
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, v, data, err := r.next()
		if err != nil {
			return 0, nil, err
		}
		switch field {
		case 1:
			id = v
		case 4: // line
			lr := pbReader{data}
			for len(lr.b) > 0 {
				f, _, lv, _, err := lr.next()
				if err != nil {
					return 0, nil, err
				}
				if f == 1 {
					fns = append(fns, lv)
				}
			}
		}
	}
	return id, fns, nil
}

func decodeFunction(b []byte) (id, name uint64, err error) {
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, v, _, err := r.next()
		if err != nil {
			return 0, 0, err
		}
		switch field {
		case 1:
			id = v
		case 2:
			name = v
		}
	}
	return id, name, nil
}
