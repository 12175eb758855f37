package obs

import (
	"ibmig/internal/mem"
	"ibmig/internal/payload"
)

// RecordDataPlane publishes the payload data-plane telemetry as gauges, so
// exported summaries and Perfetto traces carry the memory-footprint story
// next to the latency one. Gauges (not counters) because the snapshot is
// process-wide and cumulative; re-recording is idempotent. Called
// automatically by Finish; safe on a nil Collector.
func (c *Collector) RecordDataPlane() {
	if c == nil {
		return
	}
	s := payload.DataPlaneSnapshot()
	hits, misses, evictions := payload.ChecksumCacheStats()
	c.SetGauge("payload.live_extents", float64(s.LiveExtents))
	c.SetGauge("payload.peak_live_extents", float64(s.PeakLiveExtents))
	c.SetGauge("payload.nodes_allocated", float64(s.NodesAllocated))
	c.SetGauge("payload.extent_splits", float64(s.ExtentSplits))
	c.SetGauge("payload.extent_merges", float64(s.ExtentMerges))
	c.SetGauge("payload.materialized_bytes", float64(s.MaterializedBytes))
	c.SetGauge("payload.region_writes", float64(mem.RegionWrites()))
	c.SetGauge("payload.checksum_hits", float64(hits))
	c.SetGauge("payload.checksum_misses", float64(misses))
	c.SetGauge("payload.checksum_evictions", float64(evictions))
}
