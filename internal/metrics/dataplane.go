package metrics

import (
	"fmt"

	"ibmig/internal/mem"
	"ibmig/internal/payload"
)

// DataPlane is a snapshot of the zero-copy data-plane counters: how many
// region writes ran, how many extent descriptors are live, how much splicing
// happened, and — the invariant the whole design rests on — how few bytes
// were ever materialized. Counters are process-wide and host-side only; they
// never influence simulated results. Capture one before and one after a run
// and subtract to attribute activity to the run.
type DataPlane struct {
	RegionWrites      uint64 // mem.Region.Write calls
	LiveExtents       int64  // extent-tree descriptors currently allocated
	ExtentSplits      uint64 // extents cut in place by range splices
	ExtentMerges      uint64 // extents coalesced at splice seams
	MaterializedBytes uint64 // real bytes produced by payload Materialize
}

// CaptureDataPlane snapshots the current counter values.
func CaptureDataPlane() DataPlane {
	s := payload.DataPlaneSnapshot()
	return DataPlane{
		RegionWrites:      mem.RegionWrites(),
		LiveExtents:       s.LiveExtents,
		ExtentSplits:      s.ExtentSplits,
		ExtentMerges:      s.ExtentMerges,
		MaterializedBytes: s.MaterializedBytes,
	}
}

// Delta returns the activity between the since snapshot and this one.
// LiveExtents is a level, not a flow: its delta is the net change and may be
// negative.
func (d DataPlane) Delta(since DataPlane) DataPlane {
	return DataPlane{
		RegionWrites:      d.RegionWrites - since.RegionWrites,
		LiveExtents:       d.LiveExtents - since.LiveExtents,
		ExtentSplits:      d.ExtentSplits - since.ExtentSplits,
		ExtentMerges:      d.ExtentMerges - since.ExtentMerges,
		MaterializedBytes: d.MaterializedBytes - since.MaterializedBytes,
	}
}

func (d DataPlane) String() string {
	return fmt.Sprintf(
		"data plane: %d region writes | %d live extents | %d splits | %d merges | %d bytes materialized",
		d.RegionWrites, d.LiveExtents, d.ExtentSplits, d.ExtentMerges, d.MaterializedBytes)
}

// Arena is the extent-node allocation view: nodes allocated and the
// live-extent high-water mark. Nodes are ordinary garbage-collected objects,
// so none is ever recycled; Recycled stays, always zero, because perfbench
// reads it.
type Arena struct {
	Minted          uint64 // extent-tree nodes allocated
	Recycled        uint64 // always 0: nodes are never reused
	PeakLiveExtents int64  // high-water mark of live extents
}

// CaptureArena snapshots the node-allocation counters.
func CaptureArena() Arena {
	s := payload.DataPlaneSnapshot()
	return Arena{Minted: s.NodesAllocated, PeakLiveExtents: s.PeakLiveExtents}
}

// Delta returns the allocations between the since snapshot and this one.
// PeakLiveExtents keeps its current absolute value: a peak has no
// meaningful difference.
func (a Arena) Delta(since Arena) Arena {
	return Arena{Minted: a.Minted - since.Minted, PeakLiveExtents: a.PeakLiveExtents}
}
