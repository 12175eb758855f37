package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"ibmig/internal/metrics"
	"ibmig/internal/payload"
)

// outputs are an iteration's simulated results and deterministic work
// counts. They must repeat exactly: a change meant only to speed up the
// simulator leaves every one of them identical.
type outputs map[string]int64

// workload is one benchmark scenario.
type workload struct {
	// reference runs the scenario once, untimed, through the exp entry point
	// that owns it and returns the outputs every timed iteration must
	// reproduce. It doubles as the warm-up iteration: the extent arena's slab
	// pool is process-wide, and a fresh process pays it once.
	reference func(seed int64) (outputs, error)
	// iterate runs one scenario iteration. It calls it.timed exactly once
	// around the scenario; work before that call is not part of wall_s.
	iterate func(seed int64, it *iter) (outputs, error)
	// committed pins the reference outputs for some seeds (expect.go).
	committed map[int64]outputs
}

var workloads = map[string]workload{
	"paper_comparison": {comparisonReference, comparisonIterate, committedComparison},
	"paper_live":       {liveReference, liveIterate, committedLive},
	"partitioned_2048": {partitionedReference, partitionedIterate, committedPartitioned},
	"fleet_2k_30d":     {fleetReference, fleetIterate, committedFleet},
}

// span is one interval the benchmark timed around a call into a layer.
// Spans of one iteration share Iter; Parent is empty for the iteration root.
type span struct {
	Iter    int    `json:"iter"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// iter carries one iteration's host-side measurements.
type iter struct {
	id     int
	epoch  time.Time // run start; span times are relative to it
	traced bool
	prof   *profileAgg

	wall, setup time.Duration
	// calBefore and calAfter are the calibration kernel's times right before
	// and right after the timed section (calibrate.go); cal is their mean.
	// The next iteration's calBefore is this one's calAfter.
	calBefore, calAfter, cal float64

	allocMB    float64
	peakHeapMB float64
	mallocs    uint64
	gcCPU      float64 // GC CPU seconds during the timed section
	busyCPU    float64 // non-idle CPU seconds during the timed section

	layer map[string]float64 // host-side per-layer values
	dp    metrics.DataPlane
	arena metrics.Arena
	// peakExtents is the live-extent high-water mark above the level the
	// iteration started at: extents left live by earlier iterations raise
	// the level, so the absolute mark is not a per-iteration count.
	peakExtents int64
	ckHit       uint64
	ckMis       uint64
	ckEv        uint64
	spans       []span
}

func (it *iter) span(name, parent string, t0, t1 time.Time) {
	it.spans = append(it.spans, span{Iter: it.id, Name: name, Parent: parent,
		StartNS: t0.Sub(it.epoch).Nanoseconds(), EndNS: t1.Sub(it.epoch).Nanoseconds()})
}

// timed runs fn as the measured section of the iteration, then the
// calibration kernel; its time and the one before the section give the
// host's speed around the section. Every CLI invocation pays the checksum
// memo and the peak-extent mark cold, so both are reset first; a collection
// beforehand starts each iteration from the same heap.
func (it *iter) timed(fn func()) {
	if it.calBefore == 0 {
		it.calBefore = calibrate()
	}
	runtime.GC()
	payload.ResetChecksumCache()
	payload.ResetPeakLiveExtents()
	dp0, ar0 := metrics.CaptureDataPlane(), metrics.CaptureArena()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, busy0 := cpuClasses()
	hs := startHeapSampler()
	var pbuf bytes.Buffer
	if it.traced {
		if err := pprof.StartCPUProfile(&pbuf); err != nil {
			panic("perfbench: cpu profile: " + err.Error())
		}
	}
	t0 := time.Now()
	defer func() {
		it.wall = time.Since(t0)
		if it.traced {
			pprof.StopCPUProfile()
		}
		it.peakHeapMB = float64(hs.stop()) / (1 << 20)
		runtime.ReadMemStats(&m1)
		gc1, busy1 := cpuClasses()
		it.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		it.mallocs = m1.Mallocs - m0.Mallocs
		it.gcCPU, it.busyCPU = gc1-gc0, busy1-busy0
		it.dp = metrics.CaptureDataPlane().Delta(dp0)
		it.arena = metrics.CaptureArena().Delta(ar0)
		it.peakExtents = it.arena.PeakLiveExtents - ar0.PeakLiveExtents
		it.ckHit, it.ckMis, it.ckEv = payload.ChecksumCacheStats()
		if it.traced {
			if err := it.prof.add(pbuf.Bytes()); err != nil {
				panic("perfbench: cpu profile: " + err.Error())
			}
		}
		it.calAfter = calibrate()
		it.cal = (it.calBefore + it.calAfter) / 2
	}()
	fn()
}

// cpuClasses returns the runtime's cumulative GC CPU time and its non-idle
// CPU time, in seconds.
func cpuClasses() (gc, busy float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// heapSampler polls the live heap-object bytes while an iteration runs.
type heapSampler struct {
	quit, done chan struct{}
	peak       uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends sampling and returns the highest value seen, including one last
// sample taken at the end of the iteration.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	<-h.done
	h.sample()
	return h.peak
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one benchmark run reports.
type result struct {
	attempted, failed int
	walls, cals       []float64
	errors            []string
	metrics           map[string]metric
	spans             []span // traced runs only
}

const maxErrors = 8

// run executes the reference call, then timed iterations until the next
// one would overrun the budget. A traced run alternates untraced and traced
// iterations so the tracing overhead is measured under the same conditions.
func run(w workload, seed int64, seconds int, traced bool) result {
	var r result
	fail := func(id int, err error) {
		r.failed++
		if len(r.errors) < maxErrors {
			r.errors = append(r.errors, fmt.Sprintf("iteration %d: %v", id, err))
		}
	}
	want, err := protect(func() (outputs, error) { return w.reference(seed) })
	if exp, ok := w.committed[seed]; ok && err == nil {
		err = compare("committed expectation", exp, want)
	}
	if err != nil {
		// Nothing can be checked without a reference: one failed operation.
		r.attempted = 1
		fail(0, fmt.Errorf("reference: %w", err))
		r.metrics = map[string]metric{}
		return r
	}

	budget := time.Duration(seconds) * time.Second
	epoch := time.Now()
	agg := newProfileAgg()
	var done []*iter
	var det outputs // outputs and harness counts of the first good iteration
	minIters := 1
	if traced {
		minIters = 2
	}
	var lastCal float64
	for id := 1; ; id++ {
		it := &iter{id: id, epoch: epoch, traced: traced && id%2 == 0, prof: agg, layer: map[string]float64{},
			calBefore: lastCal}
		r.attempted++
		got, err := protect(func() (outputs, error) { return w.iterate(seed, it) })
		lastCal = it.calAfter
		if err == nil {
			err = compare("output", want, got)
		}
		if err == nil {
			counts := it.detCounts()
			for k, v := range got {
				counts[k] = v
			}
			if det == nil {
				det = counts
			} else {
				err = compare("deterministic count", det, counts)
			}
		}
		if err != nil {
			fail(id, err)
		} else {
			done = append(done, it)
			r.walls = append(r.walls, it.wall.Seconds())
			r.cals = append(r.cals, it.cal)
		}
		r.spans = append(r.spans, it.spans...)

		elapsed := time.Since(epoch)
		next := elapsed / time.Duration(id) // mean iteration time so far
		if id >= minIters && elapsed+next > budget {
			break
		}
	}
	if traced {
		r.metrics = layerMetrics(done, agg)
	} else {
		r.metrics = endToEndMetrics(done)
		r.spans = nil
	}
	return r
}

// protect runs fn, turning a panic (the engine's and exp's failure path)
// into an error so one bad iteration does not abort the run.
func protect(fn func() (outputs, error)) (out outputs, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// compare reports the first key of want that got lacks or disagrees on.
func compare(what string, want, got outputs) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("%s %s missing", what, k)
		}
		if g != want[k] {
			return fmt.Errorf("%s %s = %d, want %d", what, k, g, want[k])
		}
	}
	return nil
}

// detCounts are the harness-measured counts that must repeat exactly from
// iteration to iteration.
func (it *iter) detCounts() outputs {
	return outputs{
		"payload.region_writes":      int64(it.dp.RegionWrites),
		"payload.extent_splits":      int64(it.dp.ExtentSplits),
		"payload.extent_merges":      int64(it.dp.ExtentMerges),
		"payload.materialized_bytes": int64(it.dp.MaterializedBytes),
		"payload.peak_live_extents":  it.peakExtents,
	}
}

// writeSpans stores a traced run's spans beside the build output.
func writeSpans(workload string, seed int64, spans []span) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
