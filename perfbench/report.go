package main

import "sort"

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd metrics come from an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MiB"},
	{"peak_heap_mb", "MiB"},
}

// perLayer metrics come from a traced run. Every workload reports all of
// them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.windows", "count"},
	{"sim.cross_messages", "count"},
	{"sim.events_per_window", "count"},
	{"sim.self_cpu_frac", "fraction"},
	{"sim.heap_cpu_frac", "fraction"},
	{"sim.switch_cpu_frac", "fraction"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.gc_self_cpu_frac", "fraction"},
	{"runtime.alloc_cpu_frac", "fraction"},
	{"runtime.other_cpu_frac", "fraction"},
	{"runtime.allocs_per_event", "count"},
	{"payload.self_cpu_frac", "fraction"},
	{"payload.checksum_hit_ratio", "fraction"},
	{"payload.checksum_evictions", "count"},
	{"payload.region_writes", "count"},
	{"payload.extent_splits", "count"},
	{"payload.extent_merges", "count"},
	{"payload.materialized_bytes", "bytes"},
	{"payload.peak_live_extents", "count"},
	{"payload.arena_recycle_ratio", "fraction"},
	{"mpi.self_cpu_frac", "fraction"},
	{"mpi.bytes_sent", "bytes"},
	{"ib.self_cpu_frac", "fraction"},
	{"ib.rdma_chunks", "count"},
	{"ib.rdma_chunk_p50_us", "us"},
	{"ib.rdma_chunk_p99_us", "us"},
	{"ib.peak_link_busy_frac", "fraction"},
	{"npb.app_host_s", "s"},
	{"npb.self_cpu_frac", "fraction"},
	{"exp.self_cpu_frac", "fraction"},
	{"core.migrate_host_s", "s"},
	{"core.sim_stall_s", "s"},
	{"core.sim_migrate_s", "s"},
	{"core.sim_restart_s", "s"},
	{"core.sim_resume_s", "s"},
	{"core.sim_total_s", "s"},
	{"core.bytes_moved", "bytes"},
	{"core.retries", "count"},
	{"core.agg_wait_p99_us", "us"},
	{"core.model_err_pct", "%"},
	{"core.self_cpu_frac", "fraction"},
	{"cr.ext3_host_s", "s"},
	{"cr.pvfs_host_s", "s"},
	{"cr.sim_ext3_s", "s"},
	{"cr.sim_pvfs_s", "s"},
	{"cr.ext3_model_err_pct", "%"},
	{"cr.pvfs_model_err_pct", "%"},
	{"cr.self_cpu_frac", "fraction"},
	{"blcr.self_cpu_frac", "fraction"},
	{"vfs.self_cpu_frac", "fraction"},
	{"ftb.delivery_p50_us", "us"},
	{"obs.sink_events", "count"},
	{"obs.sink_drop_ratio", "fraction"},
	{"obs.spans", "count"},
	{"obs.self_cpu_frac", "fraction"},
	{"obs.overhead_frac", "fraction"},
	{"fleet.setup_host_s", "s"},
	{"fleet.run_host_s", "s"},
	{"fleet.placements", "count"},
	{"fleet.transitions", "count"},
	{"fleet.ns_per_placement", "ns"},
	{"fleet.jobs_completed_ratio", "fraction"},
	{"fleet.drains", "count"},
	{"fleet.interrupts", "count"},
	{"fleet.self_cpu_frac", "fraction"},
	{"ftmodel.self_cpu_frac", "fraction"},
	{"other.self_cpu_frac", "fraction"},
	{"stdlib.self_cpu_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
	{"host.raw_wall_s", "s"},
	{"host.cal_s", "s"},
}

func endToEndMetrics(done []*iter) map[string]metric {
	vals := map[string][]float64{}
	for _, it := range done {
		scale := calRefS / it.cal
		vals["wall_s"] = append(vals["wall_s"], it.wall.Seconds()*scale)
		vals["setup_s"] = append(vals["setup_s"], it.setup.Seconds()*scale)
		vals["alloc_mb"] = append(vals["alloc_mb"], it.allocMB)
		vals["peak_heap_mb"] = append(vals["peak_heap_mb"], it.peakHeapMB)
	}
	return collect(endToEnd, vals)
}

// layerMetrics reduces a traced run: medians of the per-iteration layer
// values over all good iterations, CPU shares from the profiles of the
// traced ones, and the tracing overhead from the two halves' scaled wall
// times.
func layerMetrics(done []*iter, agg *profileAgg) map[string]metric {
	vals := map[string][]float64{}
	var tracedWall, plainWall []float64
	var gcCPU, busyCPU float64
	for _, it := range done {
		for k, v := range it.layer {
			vals[k] = append(vals[k], v)
		}
		if ev := it.layer["sim.events"]; ev > 0 {
			vals["runtime.allocs_per_event"] = append(vals["runtime.allocs_per_event"], float64(it.mallocs)/ev)
		}
		if n := it.ckHit + it.ckMis; n > 0 {
			vals["payload.checksum_hit_ratio"] = append(vals["payload.checksum_hit_ratio"], float64(it.ckHit)/float64(n))
		}
		vals["payload.checksum_evictions"] = append(vals["payload.checksum_evictions"], float64(it.ckEv))
		if n := it.arena.Recycled + it.arena.Minted; n > 0 {
			vals["payload.arena_recycle_ratio"] = append(vals["payload.arena_recycle_ratio"], float64(it.arena.Recycled)/float64(n))
		}
		for k, v := range it.detCounts() {
			vals[k] = append(vals[k], float64(v))
		}
		vals["host.cal_s"] = append(vals["host.cal_s"], it.cal)
		scaled := it.wall.Seconds() * calRefS / it.cal
		if it.traced {
			tracedWall = append(tracedWall, scaled)
		} else {
			plainWall = append(plainWall, scaled)
			vals["host.raw_wall_s"] = append(vals["host.raw_wall_s"], it.wall.Seconds())
			gcCPU += it.gcCPU
			busyCPU += it.busyCPU
		}
	}
	if busyCPU > 0 {
		vals["runtime.gc_cpu_frac"] = []float64{gcCPU / busyCPU}
	}
	if len(tracedWall) > 0 && len(plainWall) > 0 {
		vals["trace.overhead_frac"] = []float64{median(tracedWall)/median(plainWall) - 1}
	}
	for name, f := range agg.fractions() {
		vals[name] = []float64{f}
	}
	return collect(perLayer, vals)
}

// collect reports the median of each defined metric's values, 0 where a
// workload produced none.
func collect(defs []metricDef, vals map[string][]float64) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{median(vals[d.name]), d.unit}
	}
	return m
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
