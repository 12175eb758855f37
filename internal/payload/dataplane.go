package payload

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Data-plane telemetry: process-wide atomic counters proving the zero-copy
// invariant — a migration moves extent descriptors, never materialized
// bytes. They are host-side observability only and must never influence
// simulated behaviour. Counters aggregate across all engines in the process
// (parallel experiment runners share them), so callers snapshot before/after
// a run and report the delta.
var (
	liveExtents       atomic.Int64
	peakLiveExtents   atomic.Int64
	nodesAllocated    atomic.Uint64
	extentSplits      atomic.Uint64
	extentMerges      atomic.Uint64
	materializedBytes atomic.Uint64
)

// DataPlaneStats is a snapshot of the payload data-plane counters.
type DataPlaneStats struct {
	LiveExtents       int64  // extent-tree nodes currently held by trees
	PeakLiveExtents   int64  // high-water mark of LiveExtents
	NodesAllocated    uint64 // extent-tree nodes ever allocated
	ExtentSplits      uint64 // extents cut in place by Tree.split
	ExtentMerges      uint64 // extents coalesced at splice seams
	MaterializedBytes uint64 // real bytes produced by Materialize calls
}

// DataPlaneSnapshot returns the current counter values.
func DataPlaneSnapshot() DataPlaneStats {
	return DataPlaneStats{
		LiveExtents:       liveExtents.Load(),
		PeakLiveExtents:   peakLiveExtents.Load(),
		NodesAllocated:    nodesAllocated.Load(),
		ExtentSplits:      extentSplits.Load(),
		ExtentMerges:      extentMerges.Load(),
		MaterializedBytes: materializedBytes.Load(),
	}
}

// ResetPeakLiveExtents rebaselines the peak-live-extents high-water mark to
// the current level and returns the old peak (benchmarks isolate a run by
// resetting before and reading after).
func ResetPeakLiveExtents() int64 {
	return peakLiveExtents.Swap(liveExtents.Load())
}

// notePeak records a new liveExtents level in the high-water mark.
func notePeak(level int64) {
	for {
		old := peakLiveExtents.Load()
		if level <= old || peakLiveExtents.CompareAndSwap(old, level) {
			return
		}
	}
}

// DefaultMaterializeCap bounds a single Materialize call. Checkpoint images
// are simulated at multi-GB scale; any code path that materializes one is a
// bug that previously surfaced as an OOM kill. 64 MiB comfortably covers
// every legitimate use (headers, verification windows, small-run tests).
const DefaultMaterializeCap = 64 << 20

var materializeCap atomic.Int64

func init() { materializeCap.Store(DefaultMaterializeCap) }

// SetMaterializeCap replaces the Materialize size cap and returns the
// previous value. n <= 0 removes the cap. Intended for tests that must
// materialize large buffers deliberately.
func SetMaterializeCap(n int64) (prev int64) {
	if n <= 0 {
		n = math.MaxInt64
	}
	return materializeCap.Swap(n)
}

// checkMaterialize enforces the cap and counts the materialized bytes.
func checkMaterialize(n int64) {
	if limit := materializeCap.Load(); n > limit {
		panic(fmt.Sprintf("payload: materializing %d bytes exceeds the %d-byte cap; the zero-copy data plane should be moving descriptors (raise with SetMaterializeCap if intentional)", n, limit))
	}
	materializedBytes.Add(uint64(n))
}
