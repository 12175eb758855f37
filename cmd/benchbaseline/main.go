// Command benchbaseline measures the simulator's performance baseline and
// writes it to a JSON file (BENCH_sim.json at the repo root, by convention)
// so kernel regressions show up as a diff, not a feeling.
//
// It records three layers:
//
//   - kernel microbenchmarks: event throughput, queue ping-pong, same-time
//     batch dispatch — ns/op and events/sec, via testing.Benchmark
//   - payload checksum throughput: generator-lane fold (cold) and memoized
//     (warm) paths
//   - experiment macrobenchmark: wall time and events/sec of the paper-scale
//     LU migration-vs-CR comparison (the Fig. 7 workhorse), plus the scale
//     sweep at increasing -parallel settings with measured speedups
//   - robustness: head-to-head strategy campaigns (per-strategy goodput and
//     MTTR under identical fault schedules), so recovery-quality regressions
//     are tracked next to performance ones
//   - fleet: the fleet control-plane economics campaign (1,000 nodes, 200
//     jobs, 30 simulated days per policy arm) — goodput, node-hours lost,
//     MTTI/MTTR and queue waits per scheduling × spare-pool policy
//   - partitioned scaling: the conservative time-windowed partitioned engine
//     at the top sweep point — serial full-mesh baseline vs sharded worlds at
//     increasing worker counts, with wall-clock speedups
//
// Usage:
//
//	benchbaseline [-o BENCH_sim.json] [-quick] [-seed N]
//
// -quick substitutes the reduced scale (class W / 16 ranks, short sweep
// ladder) for CI smoke runs. Numbers are host-dependent; the committed
// BENCH_sim.json records the machine it was measured on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"ibmig/internal/core"
	"ibmig/internal/exp"
	"ibmig/internal/fleet"
	"ibmig/internal/mem"
	"ibmig/internal/metrics"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// Micro is one kernel microbenchmark result.
type Micro struct {
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
}

// Sweep is one parallelism setting of the scaling study.
type Sweep struct {
	Parallelism int     `json:"parallelism"`
	WallS       float64 `json:"wall_s"`
	SpeedupX    float64 `json:"speedup_x"`
	// Oversubscribed marks points whose parallelism exceeds the host's CPU
	// count: their speedup measures scheduling overhead, not scaling, and
	// must not be read as a parallel-efficiency regression.
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

// Baseline is the whole report.
type Baseline struct {
	GeneratedBy string `json:"generated_by"`
	MeasuredAt  string `json:"measured_at"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"go_max_procs"`
	Scale       string `json:"scale"`

	Kernel  map[string]Micro `json:"kernel"`
	Payload struct {
		ChecksumColdMBps float64 `json:"checksum_cold_MBps"`
		ChecksumWarmNsOp float64 `json:"checksum_warm_ns_per_op"`
	} `json:"payload"`

	PaperComparison struct {
		Kernel  string  `json:"kernel"`
		WallS   float64 `json:"wall_s"`
		Events  uint64  `json:"events"`
		MevPerS float64 `json:"mev_per_s"`
	} `json:"paper_comparison"`

	SweepScaling []Sweep `json:"sweep_scaling"`

	// PartitionedScaling records the conservative partitioned engine at the
	// top sweep point: the first point is the serial parts=1 full-mesh
	// baseline, the rest shard the same workload across `parts` partitions at
	// each worker count. On a single-core host the speedup comes from the
	// O((ranks/parts)^2) per-shard connection mesh, not from the workers.
	PartitionedScaling struct {
		Kernel     string      `json:"kernel"`
		Ranks      int         `json:"ranks"`
		Iterations int         `json:"iterations"`
		Parts      int         `json:"parts"`
		Points     []PartPoint `json:"points"`
	} `json:"partitioned_scaling"`

	// DataPlane records the zero-copy data-plane telemetry: splice/merge
	// activity and — the headline number — how few bytes the paper-scale
	// comparison and the largest sweep point ever materialize.
	DataPlane struct {
		Comparison struct {
			RegionWrites      uint64 `json:"region_writes"`
			ExtentSplits      uint64 `json:"extent_splits"`
			ExtentMerges      uint64 `json:"extent_merges"`
			MaterializedBytes uint64 `json:"materialized_bytes"`
		} `json:"paper_comparison"`
		TopSweepPoint struct {
			Ranks             int     `json:"ranks"`
			WallS             float64 `json:"wall_s"`
			Events            uint64  `json:"events"`
			RegionWrites      uint64  `json:"region_writes"`
			LiveExtents       int64   `json:"live_extents"`
			MaterializedBytes uint64  `json:"materialized_bytes"`
			AllocMB           float64 `json:"alloc_mb"`
		} `json:"top_sweep_point"`
		RegionWriteChurn Micro `json:"region_write_churn"`
	} `json:"data_plane"`

	// MemoryFootprint records the extent footprint study: the large sweep
	// points re-run standalone with peak tracking rebaselined, so the
	// high-water mark of live extent descriptors and the cumulative Go
	// allocation are attributable to the point.
	MemoryFootprint struct {
		Kernel string           `json:"kernel"`
		Points []FootprintPoint `json:"points"`
	} `json:"memory_footprint"`

	// Obs characterizes the observability layer on an observed paper-scale
	// LU migration: the RDMA chunk-latency distribution, the hottest IB link,
	// companion latency histograms, and the cost accounting (disabled-path
	// ns/op must stay within the ≤2% overhead budget; observed wall time
	// shows the enabled cost at full scale).
	Obs struct {
		Kernel             string  `json:"kernel"`
		RDMAChunks         int64   `json:"rdma_chunks"`
		RDMAChunkP50US     float64 `json:"rdma_chunk_p50_us"`
		RDMAChunkP99US     float64 `json:"rdma_chunk_p99_us"`
		PeakLink           string  `json:"peak_link"`
		PeakLinkBusyFrac   float64 `json:"peak_link_busy_frac"`
		AggWaitP99US       float64 `json:"agg_wait_p99_us"`
		FTBDeliveryP50US   float64 `json:"ftb_delivery_p50_us"`
		Spans              int     `json:"spans"`
		ObservedWallS      float64 `json:"observed_wall_s"`
		DisabledPathNsOp   float64 `json:"disabled_path_ns_per_op"`
		DisabledPathAllocs int64   `json:"disabled_path_allocs_per_op"`
	} `json:"obs"`

	// Robustness records the head-to-head fault-tolerance campaigns so
	// BENCH_sim.json tracks recovery quality alongside performance: every
	// strategy runs the same job under an identical fault schedule, at the
	// paper's headline point (one well-predicted failure) and at the burst
	// point that reverses the verdict (three failures, only the first
	// predicted). The simulated numbers are deterministic; only wall_s is
	// host-dependent.
	Robustness struct {
		Kernel       string        `json:"kernel"`
		WallS        float64       `json:"wall_s"`
		OnePredicted []StrategyArm `json:"one_predicted_failure"`
		Burst3       []StrategyArm `json:"three_failure_burst"`
	} `json:"robustness"`

	// Fleet records the fleet control-plane economics campaign: every policy
	// arm (FIFO/backfill × fixed/autoscaled spare pool) schedules the same
	// workload against the same failure realization, so the per-arm goodput,
	// node-hours-lost, MTTI/MTTR and queue-wait numbers are pure policy
	// signal. All simulated numbers are deterministic; only wall_s is
	// host-dependent.
	Fleet struct {
		Nodes       int                  `json:"nodes"`
		Jobs        int                  `json:"jobs"`
		HorizonDays float64              `json:"horizon_days"`
		WallS       float64              `json:"wall_s"`
		Arms        []exp.FleetArmResult `json:"arms"`
	} `json:"fleet"`

	// Telemetry records the streaming-telemetry overhead: the same observed
	// paper-scale migration run with the live sink off and on (a subscriber
	// ring drained concurrently, the cmd/obsserve shape). The simulated
	// results are bit-identical either way (TestGoldenTraceStreamEnabled);
	// this section prices the host-side cost of watching.
	Telemetry struct {
		Kernel string `json:"kernel"`
		// Engine events per wall second with no sink vs a live sink attached,
		// and the relative slowdown.
		SinkOffEventsPerSec float64 `json:"sink_off_events_per_sec"`
		SinkOnEventsPerSec  float64 `json:"sink_on_events_per_sec"`
		OverheadPct         float64 `json:"overhead_pct"`
		// What the sink actually carried: telemetry events delivered to the
		// subscriber and events lost to ring overflow (0 with a keeping-up
		// consumer).
		SinkEvents  uint64 `json:"sink_events"`
		SinkDropped uint64 `json:"sink_dropped"`
	} `json:"telemetry"`

	// PreOptimization pins the numbers measured on the same host immediately
	// before the hot-path overhaul (ready-ring batching, event freelist, ring
	// wait lists, checksum memoization), for before/after comparison.
	PreOptimization map[string]any `json:"pre_optimization"`
}

// FootprintPoint is one rank count of the memory-footprint study.
type FootprintPoint struct {
	Ranks            int     `json:"ranks"`
	WallS            float64 `json:"wall_s"`
	Events           uint64  `json:"events"`
	PeakLiveExtents  int64   `json:"peak_live_extents"`
	FinalLiveExtents int64   `json:"final_live_extents"`
	AllocMB          float64 `json:"alloc_mb"`
}

// measureMemory fills the memory_footprint section: the top two sweep points
// run standalone, with the GC settled and the peak-live-extents high-water
// mark rebaselined before each, so peaks and allocation deltas belong to the
// point alone.
// measureSweepScaling fills the sweep_scaling section: the whole rank ladder
// at growing exp.RunParallel worker counts, flagging oversubscribed points
// (parallelism beyond the host's CPUs) so a sub-1x "speedup" on a small host
// is never mistaken for a scaling regression.
func measureSweepScaling(b *Baseline, sc exp.Scale, sweepRanks []int) {
	b.SweepScaling = nil
	var serialWall float64
	for _, par := range []int{1, 2, 4, 8} {
		if par > 2*runtime.NumCPU() && par > 2 {
			break // oversubscribing further tells us nothing
		}
		fmt.Fprintf(os.Stderr, "sweep at parallelism %d...\n", par)
		exp.SetParallelism(par)
		payload.ResetChecksumCache()
		start := time.Now()
		exp.ScaleSweep(sc, sweepRanks)
		w := time.Since(start).Seconds()
		if par == 1 {
			serialWall = w
		}
		sp := Sweep{Parallelism: par, WallS: w, Oversubscribed: par > runtime.NumCPU()}
		if w > 0 {
			sp.SpeedupX = serialWall / w
		}
		b.SweepScaling = append(b.SweepScaling, sp)
	}
	exp.SetParallelism(1)
}

func measureMemory(b *Baseline, sc exp.Scale, sweepRanks []int) {
	pts := sweepRanks
	if len(pts) > 2 {
		pts = pts[len(pts)-2:]
	}
	b.MemoryFootprint.Kernel = "LU"
	b.MemoryFootprint.Points = nil
	for _, ranks := range pts {
		fmt.Fprintf(os.Stderr, "memory footprint (%d ranks)...\n", ranks)
		payload.ResetChecksumCache()
		runtime.GC()
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		payload.ResetPeakLiveExtents()
		dpBefore := metrics.CaptureDataPlane()
		start := time.Now()
		out := exp.RunMigration(npb.LU, exp.Scale{Class: sc.Class, Ranks: ranks, PPN: sc.PPN, Seed: sc.Seed}, core.Options{}, false)
		wall := time.Since(start).Seconds()
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		dp := metrics.CaptureDataPlane()
		allocMB := float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		// This is the same standalone measurement the top_sweep_point section
		// makes on a full run; keep that section in sync so an incremental
		// -only memory refresh never leaves the two telling different stories.
		if ranks == sweepRanks[len(sweepRanks)-1] {
			d := dp.Delta(dpBefore)
			b.DataPlane.TopSweepPoint.Ranks = ranks
			b.DataPlane.TopSweepPoint.WallS = wall
			b.DataPlane.TopSweepPoint.Events = out.Events
			b.DataPlane.TopSweepPoint.RegionWrites = d.RegionWrites
			b.DataPlane.TopSweepPoint.LiveExtents = d.LiveExtents
			b.DataPlane.TopSweepPoint.MaterializedBytes = d.MaterializedBytes
			b.DataPlane.TopSweepPoint.AllocMB = allocMB
		}
		b.MemoryFootprint.Points = append(b.MemoryFootprint.Points, FootprintPoint{
			Ranks:            ranks,
			WallS:            wall,
			Events:           out.Events,
			PeakLiveExtents:  payload.DataPlaneSnapshot().PeakLiveExtents,
			FinalLiveExtents: dp.LiveExtents,
			AllocMB:          allocMB,
		})
	}
}

// PartPoint is one point of the partitioned-engine scaling study.
type PartPoint struct {
	Parts         int     `json:"parts"`
	Workers       int     `json:"workers"`
	WallS         float64 `json:"wall_s"`
	Events        uint64  `json:"events"`
	Windows       uint64  `json:"windows"`
	CrossMessages uint64  `json:"cross_messages"`
	SpeedupX      float64 `json:"speedup_x"`
}

// StrategyArm is one strategy's outcome in a robustness campaign.
type StrategyArm struct {
	Strategy        string  `json:"strategy"`
	Completed       bool    `json:"completed"`
	GoodputPct      float64 `json:"goodput_pct"`
	MTTRS           float64 `json:"mttr_s"`
	ReworkS         float64 `json:"rework_s"`
	NodeSecondsLost float64 `json:"node_seconds_lost"`
	Migrations      int     `json:"migrations"`
	Restarts        int     `json:"restarts"`
	ReplicaRestores int     `json:"replica_restores"`
}

func armsOf(cr *exp.CampaignResult) []StrategyArm {
	var out []StrategyArm
	for i := range cr.Results {
		r := &cr.Results[i]
		out = append(out, StrategyArm{
			Strategy:        r.Strategy,
			Completed:       r.Completed,
			GoodputPct:      r.GoodputPct,
			MTTRS:           time.Duration(r.MTTRNS).Seconds(),
			ReworkS:         time.Duration(r.ReworkNS).Seconds(),
			NodeSecondsLost: r.NodeSecondsLost,
			Migrations:      r.Migrations,
			Restarts:        r.ReactiveRestarts,
			ReplicaRestores: r.ReplicaRestores,
		})
	}
	return out
}

// measureRobustness fills the robustness section from two strategy campaigns
// on the shared failure schedule.
func measureRobustness(b *Baseline, sc exp.Scale) {
	fmt.Fprintln(os.Stderr, "strategy campaigns (robustness section)...")
	old := exp.Parallelism()
	exp.SetParallelism(0)
	defer exp.SetParallelism(old)
	start := time.Now()
	spec := exp.CampaignSpec{Kernel: npb.LU, Scale: sc, Failures: 1}
	one := exp.RunCampaign(spec)
	spec.Failures = 3
	burst := exp.RunCampaign(spec)
	b.Robustness.Kernel = "LU"
	b.Robustness.WallS = time.Since(start).Seconds()
	b.Robustness.OnePredicted = armsOf(one)
	b.Robustness.Burst3 = armsOf(burst)
}

// measureFleet fills the fleet section: the acceptance-criteria campaign
// (1,000 nodes, 200 jobs, 30 simulated days) at paper scale, a one-week
// 128-node fleet at quick scale.
func measureFleet(b *Baseline, sc exp.Scale, quick bool) {
	// MeanWork is sized so total demand slightly exceeds fleet capacity over
	// the horizon: a queue forms and the scheduling arms actually diverge
	// (an underloaded fleet makes backfill indistinguishable from FIFO).
	base := fleet.Config{
		Nodes:    1000,
		RackSize: 10,
		NodeMTBF: 4 * 24 * time.Hour,
		Horizon:  30 * 24 * time.Hour,
		Jobs:     200,
		MaxWidth: 64,
		MeanWork: 120 * time.Hour,
		Seed:     sc.Seed,
	}
	if quick {
		base.Nodes, base.RackSize = 128, 8
		base.Horizon = 7 * 24 * time.Hour
		base.Jobs, base.MaxWidth, base.MeanWork = 64, 24, 18*time.Hour
	}
	fmt.Fprintf(os.Stderr, "fleet campaign (%d nodes, %d jobs)...\n", base.Nodes, base.Jobs)
	old := exp.Parallelism()
	exp.SetParallelism(0)
	defer exp.SetParallelism(old)
	start := time.Now()
	res := exp.RunFleetCampaign(exp.FleetCampaignSpec{Base: base})
	b.Fleet.Nodes = base.Nodes
	b.Fleet.Jobs = base.Jobs
	b.Fleet.HorizonDays = base.Horizon.Hours() / 24
	b.Fleet.WallS = time.Since(start).Seconds()
	b.Fleet.Arms = res.Arms
}

// measurePartitioned fills the partitioned_scaling section: the top sweep
// point on the conservative partitioned engine, serial baseline first. The
// iteration count is trimmed so setup and steady state both show in wall
// time; it is recorded in the section so points stay comparable across runs.
func measurePartitioned(b *Baseline, sc exp.Scale, sweepRanks []int) {
	top := sweepRanks[len(sweepRanks)-1]
	fmt.Fprintf(os.Stderr, "partitioned engine scaling (%d ranks)...\n", top)
	iters := 4
	if top <= 256 {
		iters = 10
	}
	psc := exp.Scale{Class: sc.Class, Ranks: top, PPN: sc.PPN, Seed: sc.Seed}
	pts := exp.PartitionedScaling(psc, 8, []int{1, 2, 4, 8}, iters)
	b.PartitionedScaling.Kernel = "LU"
	b.PartitionedScaling.Ranks = top
	b.PartitionedScaling.Iterations = pts[0].Iterations
	b.PartitionedScaling.Parts = 8
	b.PartitionedScaling.Points = nil
	base := pts[0].Wall.Seconds()
	for _, p := range pts {
		pt := PartPoint{
			Parts: p.Parts, Workers: p.Workers, WallS: p.Wall.Seconds(),
			Events: p.Events, Windows: p.Windows, CrossMessages: p.CrossMessages,
		}
		if w := p.Wall.Seconds(); w > 0 {
			pt.SpeedupX = base / w
		}
		b.PartitionedScaling.Points = append(b.PartitionedScaling.Points, pt)
	}
}

func microOf(r testing.BenchmarkResult, events uint64) Micro {
	m := Micro{NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp()}
	if s := r.T.Seconds(); s > 0 {
		m.EventsPerSec = float64(events) / s
	}
	return m
}

// measureObs fills the obs section from one observed migration plus the
// disabled-path microbenchmark.
func measureObs(b *Baseline, sc exp.Scale) {
	fmt.Fprintln(os.Stderr, "observed migration (obs section)...")
	payload.ResetChecksumCache()
	start := time.Now()
	_, col := exp.RunMigrationObserved(npb.LU, sc, core.Options{}, false)
	b.Obs.ObservedWallS = time.Since(start).Seconds()
	b.Obs.Kernel = "LU"
	h := col.Histogram("ib.rdma_read_us")
	b.Obs.RDMAChunks = h.Count()
	b.Obs.RDMAChunkP50US = h.Quantile(0.50)
	b.Obs.RDMAChunkP99US = h.Quantile(0.99)
	b.Obs.AggWaitP99US = col.Histogram("core.agg_wait_us").Quantile(0.99)
	b.Obs.FTBDeliveryP50US = col.Histogram("ftb.delivery_us").Quantile(0.50)
	b.Obs.Spans = len(col.Spans())
	// All capacity-1 links peak at 100%, so "hottest" means busiest fraction
	// of its active window, not highest instantaneous peak.
	var peakName string
	var peakBusy float64
	for _, name := range col.TopTracks("ib.") {
		if busy := col.Track(name).BusyFraction(); busy > peakBusy {
			peakName, peakBusy = name, busy
		}
	}
	b.Obs.PeakLink, b.Obs.PeakLinkBusyFrac = peakName, peakBusy

	r := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		e := sim.NewEngine(1)
		for i := 0; i < tb.N; i++ {
			c := obs.Get(e)
			id := c.StartSpan(e.Now(), "x", "a", 0)
			c.EndSpan(e.Now(), id)
			c.Hist("h", obs.LatencyBucketsUS).Observe(1)
		}
	})
	b.Obs.DisabledPathNsOp = float64(r.NsPerOp())
	b.Obs.DisabledPathAllocs = r.AllocsPerOp()
}

// measureTelemetry fills the telemetry section: the observed paper-scale
// migration with the sink off, then again with a live subscriber ring drained
// concurrently, priced as engine events per wall second.
func measureTelemetry(b *Baseline, sc exp.Scale) {
	fmt.Fprintln(os.Stderr, "streaming telemetry overhead (telemetry section)...")
	b.Telemetry.Kernel = "LU"
	payload.ResetChecksumCache()
	start := time.Now()
	offOut, _ := exp.RunMigrationObserved(npb.LU, sc, core.Options{}, false)
	offWall := time.Since(start).Seconds()
	payload.ResetChecksumCache()
	start = time.Now()
	onOut, _, stats := exp.RunMigrationStreamed(npb.LU, sc, core.Options{}, false, 1<<16)
	onWall := time.Since(start).Seconds()
	if offWall > 0 {
		b.Telemetry.SinkOffEventsPerSec = float64(offOut.Events) / offWall
	}
	if onWall > 0 {
		b.Telemetry.SinkOnEventsPerSec = float64(onOut.Events) / onWall
	}
	if offWall > 0 {
		b.Telemetry.OverheadPct = (onWall/offWall - 1) * 100
	}
	b.Telemetry.SinkEvents = stats.Events
	b.Telemetry.SinkDropped = stats.Dropped
}

func main() {
	out := flag.String("o", "BENCH_sim.json", "output file")
	quick := flag.Bool("quick", false, "reduced scale for CI smoke runs")
	only := flag.String("only", "", "re-measure just one section into an existing file (supported: obs, robustness, partitioned, memory, sweep, telemetry, fleet)")
	seed := flag.Int64("seed", 1, "simulation seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	var b Baseline
	b.GeneratedBy = "cmd/benchbaseline"
	b.MeasuredAt = time.Now().UTC().Format(time.RFC3339)
	b.NumCPU = runtime.NumCPU()
	b.GoMaxProcs = runtime.GOMAXPROCS(0)
	b.Kernel = map[string]Micro{}

	sc := exp.PaperScale
	sweepRanks := exp.DefaultSweepRanks
	b.Scale = "paper"
	if *quick {
		sc = exp.QuickScale
		sweepRanks = exp.QuickSweepRanks
		b.Scale = "quick"
	}
	sc.Seed = *seed

	// Incremental mode: a full regeneration takes minutes, so -only re-measures
	// one section into the existing file and leaves the rest untouched.
	if *only != "" {
		switch *only {
		case "obs", "robustness", "partitioned", "memory", "sweep", "telemetry", "fleet":
		default:
			fmt.Fprintf(os.Stderr, "unsupported -only section %q (supported: obs, robustness, partitioned, memory, sweep, telemetry, fleet)\n", *only)
			os.Exit(2)
		}
		data, err := os.ReadFile(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := json.Unmarshal(data, &b); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *out, err)
			os.Exit(1)
		}
		switch *only {
		case "obs":
			measureObs(&b, sc)
			writeBaseline(*out, &b)
			fmt.Printf("updated obs section of %s (p50=%.1fµs p99=%.1fµs over %d chunks, hottest link %s at %.1f%%)\n",
				*out, b.Obs.RDMAChunkP50US, b.Obs.RDMAChunkP99US, b.Obs.RDMAChunks,
				b.Obs.PeakLink, b.Obs.PeakLinkBusyFrac*100)
		case "robustness":
			measureRobustness(&b, sc)
			writeBaseline(*out, &b)
			fmt.Printf("updated robustness section of %s (%d arms per campaign, %.1fs wall)\n",
				*out, len(b.Robustness.OnePredicted), b.Robustness.WallS)
		case "fleet":
			measureFleet(&b, sc, *quick)
			writeBaseline(*out, &b)
			fmt.Printf("updated fleet section of %s (%d nodes, %d jobs, %d arms, %.1fs wall)\n",
				*out, b.Fleet.Nodes, b.Fleet.Jobs, len(b.Fleet.Arms), b.Fleet.WallS)
		case "partitioned":
			measurePartitioned(&b, sc, sweepRanks)
			writeBaseline(*out, &b)
			ps := b.PartitionedScaling
			last := ps.Points[len(ps.Points)-1]
			fmt.Printf("updated partitioned_scaling section of %s (%d ranks, serial %.1fs vs %d shards x %d workers %.1fs, %.2fx)\n",
				*out, ps.Ranks, ps.Points[0].WallS, last.Parts, last.Workers, last.WallS, last.SpeedupX)
		case "sweep":
			measureSweepScaling(&b, sc, sweepRanks)
			writeBaseline(*out, &b)
			last := b.SweepScaling[len(b.SweepScaling)-1]
			fmt.Printf("updated sweep_scaling section of %s (%d points, last: parallelism %d, %.1fs, %.2fx, oversubscribed=%v)\n",
				*out, len(b.SweepScaling), last.Parallelism, last.WallS, last.SpeedupX, last.Oversubscribed)
		case "memory":
			measureMemory(&b, sc, sweepRanks)
			writeBaseline(*out, &b)
			top := b.MemoryFootprint.Points[len(b.MemoryFootprint.Points)-1]
			fmt.Printf("updated memory_footprint section of %s (%d ranks: peak %d live extents, %.0f MB allocated)\n",
				*out, top.Ranks, top.PeakLiveExtents, top.AllocMB)
		case "telemetry":
			measureTelemetry(&b, sc)
			writeBaseline(*out, &b)
			fmt.Printf("updated telemetry section of %s (sink off %.2f Mev/s, on %.2f Mev/s, overhead %.1f%%, %d events streamed, %d dropped)\n",
				*out, b.Telemetry.SinkOffEventsPerSec/1e6, b.Telemetry.SinkOnEventsPerSec/1e6,
				b.Telemetry.OverheadPct, b.Telemetry.SinkEvents, b.Telemetry.SinkDropped)
		}
		return
	}

	// --- kernel microbenchmarks ------------------------------------------
	fmt.Fprintln(os.Stderr, "kernel microbenchmarks...")
	var lastEvents uint64
	r := testing.Benchmark(func(tb *testing.B) {
		e := sim.NewEngine(1)
		e.Spawn("ticker", func(p *sim.Proc) {
			for i := 0; i < tb.N; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		tb.ResetTimer()
		if err := e.Run(); err != nil {
			tb.Fatal(err)
		}
		lastEvents = e.Events()
	})
	b.Kernel["event_throughput"] = microOf(r, lastEvents)

	r = testing.Benchmark(func(tb *testing.B) {
		e := sim.NewEngine(1)
		q1 := sim.NewQueue[int](e, "q1", 0)
		q2 := sim.NewQueue[int](e, "q2", 0)
		e.Spawn("a", func(p *sim.Proc) {
			for i := 0; i < tb.N; i++ {
				q1.Send(p, i)
				q2.Recv(p)
			}
		})
		e.Spawn("b", func(p *sim.Proc) {
			for i := 0; i < tb.N; i++ {
				q1.Recv(p)
				q2.Send(p, i)
			}
		})
		tb.ResetTimer()
		if err := e.Run(); err != nil {
			tb.Fatal(err)
		}
		lastEvents = e.Events()
	})
	b.Kernel["ping_pong"] = microOf(r, lastEvents)

	// Persistent driver, shared worker body, reusable WaitGroup — the same
	// shape as sim's BenchmarkSameTimeBatch, so allocs/op measures the kernel's
	// pooled spawn path rather than per-iteration closure construction.
	r = testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		e := sim.NewEngine(1)
		wg := sim.NewWaitGroup(e)
		worker := func(p *sim.Proc) {
			p.Sleep(time.Microsecond)
			wg.Done()
		}
		e.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < tb.N; i++ {
				wg.Add(256)
				for w := 0; w < 256; w++ {
					p.SpawnChild("w", worker)
				}
				wg.Wait(p)
			}
		})
		tb.ResetTimer()
		if err := e.Run(); err != nil {
			tb.Fatal(err)
		}
		lastEvents = e.Events()
	})
	b.Kernel["same_time_batch_256"] = microOf(r, lastEvents)

	// --- payload ----------------------------------------------------------
	fmt.Fprintln(os.Stderr, "payload checksum...")
	r = testing.Benchmark(func(tb *testing.B) {
		tb.SetBytes(1 << 20)
		for i := 0; i < tb.N; i++ {
			_ = payload.Synth(uint64(i)+1, 0, 1<<20).Checksum()
		}
	})
	b.Payload.ChecksumColdMBps = float64(r.Bytes*int64(r.N)) / (1 << 20) / r.T.Seconds()
	warm := payload.Synth(1, 0, 1<<20)
	warm.Checksum() // populate cache
	r = testing.Benchmark(func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			_ = warm.Checksum()
		}
	})
	b.Payload.ChecksumWarmNsOp = float64(r.NsPerOp())

	// --- paper-scale comparison ------------------------------------------
	// Events come from a separate untimed migration run (RunComparison does
	// not expose its engine); the Mev/s figure uses that count as a proxy for
	// per-run event volume.
	fmt.Fprintln(os.Stderr, "paper-scale LU comparison...")
	migOut := exp.RunMigration(npb.LU, sc, core.Options{}, false)
	payload.ResetChecksumCache()
	dpBefore := metrics.CaptureDataPlane()
	start := time.Now()
	exp.RunComparison(npb.LU, sc, core.Options{})
	wall := time.Since(start).Seconds()
	dpCmp := metrics.CaptureDataPlane().Delta(dpBefore)
	b.PaperComparison.Kernel = "LU"
	b.PaperComparison.WallS = wall
	b.PaperComparison.Events = migOut.Events
	if wall > 0 {
		b.PaperComparison.MevPerS = float64(migOut.Events) / wall / 1e6
	}
	b.DataPlane.Comparison.RegionWrites = dpCmp.RegionWrites
	b.DataPlane.Comparison.ExtentSplits = dpCmp.ExtentSplits
	b.DataPlane.Comparison.ExtentMerges = dpCmp.ExtentMerges
	b.DataPlane.Comparison.MaterializedBytes = dpCmp.MaterializedBytes

	// --- data plane -------------------------------------------------------
	// Region-write churn: sustained random overwrites of one region. The
	// interesting numbers are allocs/op (descriptor splicing, no content
	// rebuild) and that it stays flat as the region fills.
	r = testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		reg := mem.NewRegion(64<<20, 1)
		for i := 0; i < tb.N; i++ {
			off := int64(i%8191) * 8192 % (64<<20 - 1<<16)
			reg.Write(off, payload.Synth(uint64(i)+2, 0, 1<<16))
		}
	})
	// One region write is one op; events/sec here means sustained writes/sec
	// (it was accidentally left at zero before).
	b.DataPlane.RegionWriteChurn = microOf(r, uint64(r.N))

	// Largest sweep point, run standalone so its data-plane delta and
	// allocation footprint are attributable (the sweep loop below fans points
	// across goroutines, which blurs the process-wide counters).
	top := sweepRanks[len(sweepRanks)-1]
	fmt.Fprintf(os.Stderr, "top sweep point (%d ranks)...\n", top)
	payload.ResetChecksumCache()
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	dpBefore = metrics.CaptureDataPlane()
	start = time.Now()
	topOut := exp.RunMigration(npb.LU, exp.Scale{Class: sc.Class, Ranks: top, PPN: sc.PPN, Seed: sc.Seed}, core.Options{}, false)
	topWall := time.Since(start).Seconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	dpTop := metrics.CaptureDataPlane().Delta(dpBefore)
	b.DataPlane.TopSweepPoint.Ranks = top
	b.DataPlane.TopSweepPoint.WallS = topWall
	b.DataPlane.TopSweepPoint.Events = topOut.Events
	b.DataPlane.TopSweepPoint.RegionWrites = dpTop.RegionWrites
	b.DataPlane.TopSweepPoint.LiveExtents = dpTop.LiveExtents
	b.DataPlane.TopSweepPoint.MaterializedBytes = dpTop.MaterializedBytes
	b.DataPlane.TopSweepPoint.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)

	// --- sweep scaling ----------------------------------------------------
	measureSweepScaling(&b, sc, sweepRanks)

	// --- memory footprint -------------------------------------------------
	measureMemory(&b, sc, sweepRanks)

	// --- partitioned engine ----------------------------------------------
	measurePartitioned(&b, sc, sweepRanks)

	// --- robustness -------------------------------------------------------
	measureRobustness(&b, sc)

	// --- fleet economics ---------------------------------------------------
	measureFleet(&b, sc, *quick)

	// --- observability ----------------------------------------------------
	measureObs(&b, sc)

	// --- streaming telemetry ----------------------------------------------
	measureTelemetry(&b, sc)

	// Measured 2026-08-05 on the same host (1 vCPU) at commit 6f7b7e9,
	// immediately before the overhaul.
	b.PreOptimization = map[string]any{
		"event_throughput_ns_per_op": 620.9,
		"ping_pong_ns_per_op":        1540.0,
		"paper_fig7_all_wall_s":      12.1,
		"paper_lu_comparison_wall_s": 8.82,
	}

	writeBaseline(*out, &b)
	fmt.Printf("wrote %s (paper comparison %.2fs wall, %.2f Mev/s)\n",
		*out, b.PaperComparison.WallS, b.PaperComparison.MevPerS)
}

func writeBaseline(path string, b *Baseline) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
