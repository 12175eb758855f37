package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/core"
	"ibmig/internal/cr"
	"ibmig/internal/exp"
	"ibmig/internal/fleet"
	"ibmig/internal/metrics"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
	"ibmig/internal/sim"
)

// Paper figures the simulated totals are compared against (Fig. 7, LU.C.64).
const (
	paperMigrateS = 6.3
	paperExt3S    = 12.9
	paperPVFSS    = 28.3
)

// paperScale is LU class C, 64 ranks at 8 per node, with the run's seed.
func paperScale(seed int64) exp.Scale {
	sc := exp.PaperScale
	sc.Seed = seed
	return sc
}

// reportOutputs flattens a migration report into outputs.
func reportOutputs(o outputs, r *metrics.Report) error {
	if r == nil {
		return fmt.Errorf("no migration report")
	}
	o["core.sim_stall_ns"] = int64(r.Phase(metrics.PhaseStall))
	o["core.sim_migrate_ns"] = int64(r.Phase(metrics.PhaseMigrate))
	o["core.sim_restart_ns"] = int64(r.Phase(metrics.PhaseRestart))
	o["core.sim_resume_ns"] = int64(r.Phase(metrics.PhaseResume))
	o["core.sim_total_ns"] = int64(r.Total())
	o["core.bytes_moved"] = r.BytesMoved
	o["core.retries"] = r.Extra["aborts"] + r.Extra["spare_retries"] + r.Extra["cr_fallbacks"]
	return nil
}

func crOutputs(o outputs, ext3, pvfs *metrics.Report) error {
	if ext3 == nil || pvfs == nil {
		return fmt.Errorf("missing CR report")
	}
	o["cr.sim_ext3_ns"] = int64(ext3.Total())
	o["cr.ext3_bytes"] = ext3.BytesMoved
	o["cr.sim_pvfs_ns"] = int64(pvfs.Total())
	o["cr.pvfs_bytes"] = pvfs.BytesMoved
	return nil
}

// session is the benchmark's own drive of the job exp.RunComparison and
// exp.RunMigrationStreamed launch: the same public calls exp's session makes
// (sim.NewEngine, cluster.New, npb.New, core.Launch), so that host time can
// be taken around each step.
type session struct {
	mig, ext3, pvfs *metrics.Report
	verified        bool
	events          uint64
	bytesSent       int64

	setup, app, migrate, crExt3, crPVFS, total time.Duration
}

// runSession launches LU on the paper-scale cluster (pvfsServers PVFS
// servers), migrates the middle compute node a third into the estimated
// runtime and, if withCR, runs a full CR cycle to ext3 and then one to PVFS.
// Spans go to it under the root name.
func runSession(sc exp.Scale, pvfsServers int, withCR bool, it *iter, root string) (*session, error) {
	s := &session{}
	t0 := time.Now()
	var tReady, tTrig, tMig, tExt3, tPVFS time.Time
	e := sim.NewEngine(sc.Seed)
	c := cluster.New(e, cluster.Config{
		ComputeNodes: sc.Ranks / sc.PPN,
		SpareNodes:   1,
		PVFSServers:  pvfsServers,
	})
	w := npb.New(npb.LU, sc.Class, sc.Ranks)
	res := npb.NewResult(sc.Ranks)
	fw := core.Launch(c, w, sc.PPN, res, core.Options{})
	e.Spawn("exp.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		tReady = time.Now()
		p.Sleep(w.EstimatedRuntime() / 3)
		tTrig = time.Now()
		fw.TriggerMigration(p, c.Compute[len(c.Compute)/2].Name).Wait(p)
		tMig = time.Now()
		s.verified = fw.LastVerified()
		if withCR {
			s.ext3 = cr.NewRunner(c, fw.W, cr.Ext3, false).FullCycle(p)
			tExt3 = time.Now()
			s.pvfs = cr.NewRunner(c, fw.W, cr.PVFS, false).FullCycle(p)
			tPVFS = time.Now()
		}
		e.Stop()
	})
	err := e.Run()
	e.Shutdown()
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	if len(fw.Reports) > 0 {
		s.mig = fw.Reports[len(fw.Reports)-1]
	}
	s.events = e.Events()
	s.bytesSent = fw.W.BytesSent()

	s.setup, s.app, s.migrate, s.total = tReady.Sub(t0), tTrig.Sub(tReady), tMig.Sub(tTrig), t1.Sub(t0)
	it.span(root, "", t0, t1)
	it.span("setup", root, t0, tReady)
	it.span("app", root, tReady, tTrig)
	it.span("core.migrate", root, tTrig, tMig)
	if withCR {
		s.crExt3, s.crPVFS = tExt3.Sub(tMig), tPVFS.Sub(tExt3)
		it.span("cr.ext3", root, tMig, tExt3)
		it.span("cr.pvfs", root, tExt3, tPVFS)
	}
	return s, nil
}

// outputs checks the session's own invariants and flattens its results.
func (s *session) outputs() (outputs, error) {
	o := outputs{"sim.events": int64(s.events), "mpi.bytes_sent": s.bytesSent}
	if err := reportOutputs(o, s.mig); err != nil {
		return nil, err
	}
	if !s.verified {
		return nil, fmt.Errorf("restored images not verified")
	}
	if o["core.retries"] != 0 {
		return nil, fmt.Errorf("migration needed %d retries", o["core.retries"])
	}
	if s.ext3 != nil {
		if err := crOutputs(o, s.ext3, s.pvfs); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// layers records the session's host times and simulated figures.
func (s *session) layers(it *iter, o outputs) {
	it.layer["npb.app_host_s"] = s.app.Seconds()
	it.layer["core.migrate_host_s"] = s.migrate.Seconds()
	for _, k := range []string{"stall", "migrate", "restart", "resume", "total"} {
		it.layer["core.sim_"+k+"_s"] = float64(o["core.sim_"+k+"_ns"]) / 1e9
	}
	it.layer["core.bytes_moved"] = float64(o["core.bytes_moved"])
	it.layer["core.retries"] = float64(o["core.retries"])
	it.layer["core.model_err_pct"] = errPct(it.layer["core.sim_total_s"], paperMigrateS)
	it.layer["mpi.bytes_sent"] = float64(s.bytesSent)
	it.layer["sim.events"] = float64(s.events)
	if s.ext3 != nil {
		it.layer["cr.ext3_host_s"] = s.crExt3.Seconds()
		it.layer["cr.pvfs_host_s"] = s.crPVFS.Seconds()
		it.layer["cr.sim_ext3_s"] = s.ext3.Total().Seconds()
		it.layer["cr.sim_pvfs_s"] = s.pvfs.Total().Seconds()
		it.layer["cr.ext3_model_err_pct"] = errPct(it.layer["cr.sim_ext3_s"], paperExt3S)
		it.layer["cr.pvfs_model_err_pct"] = errPct(it.layer["cr.sim_pvfs_s"], paperPVFSS)
	}
}

func errPct(got, paper float64) float64 { return (got/paper - 1) * 100 }

// --- paper_comparison ------------------------------------------------------

func comparisonReference(seed int64) (outputs, error) {
	mig, ext3, pvfs, _ := exp.RunComparison(npb.LU, paperScale(seed), core.Options{})
	o := outputs{}
	if err := reportOutputs(o, mig); err != nil {
		return nil, err
	}
	return o, crOutputs(o, ext3, pvfs)
}

func comparisonIterate(seed int64, it *iter) (outputs, error) {
	var s *session
	var err error
	it.timed(func() { s, err = runSession(paperScale(seed), 4, true, it, "paper_comparison") })
	if err != nil {
		return nil, err
	}
	it.setup = s.setup
	o, err := s.outputs()
	if err != nil {
		return nil, err
	}
	s.layers(it, o)
	it.layer["sim.ns_per_event"] = float64(it.wall.Nanoseconds()) / float64(s.events)
	return o, nil
}

// --- paper_live --------------------------------------------------------------

// liveRing is the subscriber ring exp.RunMigrationStreamed is run with, the
// capacity cmd/obsserve serves with.
const liveRing = 1 << 16

// liveOutputs flattens a streamed migration's results.
func liveOutputs(out exp.MigrationOutcome, col *obs.Collector, st exp.StreamStats) (outputs, error) {
	o := outputs{
		"sim.events":    int64(out.Events),
		"obs.published": int64(st.Events + st.Dropped),
		"obs.spans":     int64(len(col.Spans())),
		"ib.rdma_reads": col.Counter("ib.rdma_reads"),
	}
	return o, reportOutputs(o, out.Report)
}

func liveReference(seed int64) (outputs, error) {
	return liveOutputs(exp.RunMigrationStreamed(npb.LU, paperScale(seed), core.Options{}, false, liveRing))
}

// liveIterate first drives the same job and migration without the obs plane
// (untimed: it gives set-up time, which the exp call does not expose, and
// the denominator of obs.overhead_frac), then times the streamed exp call.
func liveIterate(seed int64, it *iter) (outputs, error) {
	sc := paperScale(seed)
	base, err := runSession(sc, 0, false, it, "baseline")
	if err != nil {
		return nil, err
	}
	bo, err := base.outputs()
	if err != nil {
		return nil, err
	}
	it.setup = base.setup
	base.layers(it, bo)

	var out exp.MigrationOutcome
	var col *obs.Collector
	var st exp.StreamStats
	var t0 time.Time
	it.timed(func() {
		t0 = time.Now()
		out, col, st = exp.RunMigrationStreamed(npb.LU, sc, core.Options{}, false, liveRing)
	})
	it.span("exp.RunMigrationStreamed", "", t0, t0.Add(it.wall))
	o, err := liveOutputs(out, col, st)
	if err != nil {
		return nil, err
	}
	// The obs plane is passive: the streamed run must simulate exactly what
	// the unobserved one did. The exp call does not expose the MPI world.
	delete(bo, "mpi.bytes_sent")
	if err := compare("streamed run vs unobserved", bo, o); err != nil {
		return nil, err
	}

	it.layer["obs.sink_events"] = float64(st.Events)
	it.layer["obs.sink_drop_ratio"] = float64(st.Dropped) / float64(st.Events+st.Dropped)
	it.layer["obs.spans"] = float64(len(col.Spans()))
	it.layer["obs.overhead_frac"] = it.wall.Seconds()/base.total.Seconds() - 1
	rd := col.Histogram("ib.rdma_read_us")
	it.layer["ib.rdma_chunks"] = float64(rd.Count())
	it.layer["ib.rdma_chunk_p50_us"] = rd.Quantile(0.50)
	it.layer["ib.rdma_chunk_p99_us"] = rd.Quantile(0.99)
	it.layer["ib.peak_link_busy_frac"] = peakBusy(col, "ib.")
	it.layer["core.agg_wait_p99_us"] = col.Histogram("core.agg_wait_us").Quantile(0.99)
	it.layer["ftb.delivery_p50_us"] = col.Histogram("ftb.delivery_us").Quantile(0.50)
	it.layer["sim.ns_per_event"] = float64(it.wall.Nanoseconds()) / float64(out.Events)
	return o, nil
}

// peakBusy is the highest busy fraction among the collector's tracks whose
// name starts with prefix.
func peakBusy(col *obs.Collector, prefix string) float64 {
	var peak float64
	for _, n := range col.TrackNames() {
		if strings.HasPrefix(n, prefix) {
			if b := col.Track(n).BusyFraction(); b > peak {
				peak = b
			}
		}
	}
	return peak
}

// --- partitioned_2048 --------------------------------------------------------

const (
	partRanks      = 2048
	partParts      = 8
	partWorkers    = 1
	partIterations = 2
)

func partitionedRun(seed int64) (exp.PartitionedOutcome, outputs, error) {
	po := exp.RunPartitionedLU(exp.Scale{Class: npb.ClassC, Ranks: partRanks, Seed: seed},
		partParts, partWorkers, partIterations, false)
	for r, n := range po.Result.IterDone {
		if n != partIterations {
			return po, nil, fmt.Errorf("rank %d finished %d iterations, want %d", r, n, partIterations)
		}
	}
	return po, outputs{
		"sim.events":         int64(po.Events),
		"sim.windows":        int64(po.Windows),
		"sim.cross_messages": int64(po.CrossMessages),
		"sim.virtual_ns":     int64(po.VirtualTime),
	}, nil
}

func partitionedReference(seed int64) (outputs, error) {
	_, o, err := partitionedRun(seed)
	return o, err
}

func partitionedIterate(seed int64, it *iter) (outputs, error) {
	var po exp.PartitionedOutcome
	var o outputs
	var err error
	var t0 time.Time
	it.timed(func() {
		t0 = time.Now()
		po, o, err = partitionedRun(seed)
	})
	if err != nil {
		return nil, err
	}
	// Wall covers only the partitioned engine's run; the rest of the call
	// builds shards, worlds and links (and tears them down).
	it.setup = it.wall - po.Wall
	t1 := t0.Add(it.wall)
	it.span("partitioned_2048", "", t0, t1)
	it.span("build", "partitioned_2048", t0, t1.Add(-po.Wall))
	it.span("run", "partitioned_2048", t1.Add(-po.Wall), t1)
	it.layer["sim.events"] = float64(po.Events)
	it.layer["sim.windows"] = float64(po.Windows)
	it.layer["sim.cross_messages"] = float64(po.CrossMessages)
	it.layer["sim.events_per_window"] = float64(po.Events) / float64(po.Windows)
	it.layer["sim.ns_per_event"] = float64(po.Wall.Nanoseconds()) / float64(po.Events)
	return o, nil
}

// --- fleet_2k_30d --------------------------------------------------------------

// fleetConfig is 2,000 nodes in racks of 10 over 30 days: the ROADMAP
// campaign's jobs-per-node density at twice its size.
func fleetConfig(seed int64) fleet.Config {
	return fleet.Config{
		Nodes:    2000,
		RackSize: 10,
		NodeMTBF: 4 * 24 * time.Hour,
		Horizon:  30 * 24 * time.Hour,
		Jobs:     400,
		MaxWidth: 64,
		MeanWork: 120 * time.Hour,
		Seed:     seed,
	}
}

// fleetArms are exp.RunFleetCampaign's default arms, named explicitly so
// the benchmark's drive and the reference run the same list.
var fleetArms = []exp.FleetArmSpec{
	{Name: "fifo", Policy: fleet.PolicyFIFO},
	{Name: "backfill", Policy: fleet.PolicyBackfill},
	{Name: "fifo+auto", Policy: fleet.PolicyFIFO, AutoScale: true},
	{Name: "backfill+auto", Policy: fleet.PolicyBackfill, AutoScale: true},
}

// fleetDraws is how many realizations of failures and arrivals each arm
// runs per iteration. Every fleet run has a realization of its own, so one
// iteration covers eight. Most of the fleet's allocation is the free-node
// scan, whose size follows the realization: with one realization shared by
// the four arms, the middle half of ten seeds' alloc_mb spread by 20% of the
// median, and with one per arm by 11%.
const fleetDraws = 2

// fleetRun is one fleet run of an iteration: an arm on one realization.
type fleetRun struct {
	name string
	arm  exp.FleetArmSpec
	seed int64
}

// fleetRuns lists an iteration's runs at the run's seed, each draw's four
// arms in turn.
func fleetRuns(seed int64) []fleetRun {
	var runs []fleetRun
	for d := 0; d < fleetDraws; d++ {
		for i, arm := range fleetArms {
			runs = append(runs, fleetRun{
				name: fmt.Sprintf("%s#%d", arm.Name, d),
				arm:  arm,
				seed: (seed*fleetDraws+int64(d))*int64(len(fleetArms)) + int64(i),
			})
		}
	}
	return runs
}

func fleetArmOutputs(o outputs, arm string, r *fleet.Result) error {
	fp, err := strconv.ParseUint(r.Fingerprint, 16, 64)
	if err != nil {
		return fmt.Errorf("arm %s: fingerprint %q: %w", arm, r.Fingerprint, err)
	}
	if r.JobsCompleted+r.JobsCut+r.JobsRejected != r.JobsTotal {
		return fmt.Errorf("arm %s: %d completed + %d cut + %d rejected != %d jobs",
			arm, r.JobsCompleted, r.JobsCut, r.JobsRejected, r.JobsTotal)
	}
	o["fleet."+arm+".fingerprint"] = int64(fp)
	o["fleet."+arm+".jobs_completed"] = int64(r.JobsCompleted)
	o["fleet.jobs_completed"] += int64(r.JobsCompleted)
	o["fleet.jobs_total"] += int64(r.JobsTotal)
	o["fleet.drains"] += int64(r.Drains)
	o["fleet.interrupts"] += int64(r.Interrupts)
	return nil
}

func fleetReference(seed int64) (outputs, error) {
	o := outputs{}
	for _, fr := range fleetRuns(seed) {
		res := exp.RunFleetCampaign(exp.FleetCampaignSpec{Base: fleetConfig(fr.seed), Arms: []exp.FleetArmSpec{fr.arm}})
		if err := fleetArmOutputs(o, fr.name, res.Arms[0].R); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// fleetArm is one fleet run's result and host times.
type fleetArm struct {
	r                    *fleet.Result
	events               uint64
	placements, transits int64
	build, run           time.Duration
}

// runFleetArms makes each of the iteration's fleet runs through
// fleet.New(e, cfg).Run() in turn, as exp.RunFleetCampaign does at
// parallelism 1, counting placements and transitions through the system's
// probes.
func runFleetArms(runs []fleetRun, it *iter) []fleetArm {
	out := make([]fleetArm, len(runs))
	for i, fr := range runs {
		cfg := fleetConfig(fr.seed)
		cfg.Policy, cfg.AutoScale = fr.arm.Policy, fr.arm.AutoScale
		a := &out[i]
		e := sim.NewEngine(cfg.Seed)
		t0 := time.Now()
		sys := fleet.New(e, cfg)
		t1 := time.Now()
		sys.OnPlacement(func(fleet.PlacementEvent) { a.placements++ })
		sys.OnTransition(func(sim.Time, *fleet.Node, fleet.NodeState, fleet.NodeState) { a.transits++ })
		a.r = sys.Run()
		t2 := time.Now()
		a.events, a.build, a.run = e.Events(), t1.Sub(t0), t2.Sub(t1)
		it.span("fleet.New "+fr.name, "fleet_2k_30d", t0, t1)
		it.span("Run "+fr.name, "fleet_2k_30d", t1, t2)
	}
	return out
}

func fleetIterate(seed int64, it *iter) (outputs, error) {
	runs := fleetRuns(seed)
	var arms []fleetArm
	var t0 time.Time
	it.timed(func() {
		t0 = time.Now()
		arms = runFleetArms(runs, it)
	})
	it.span("fleet_2k_30d", "", t0, t0.Add(it.wall))
	o := outputs{}
	var events, placements, transits int64
	var build, runT time.Duration
	for i, a := range arms {
		if err := fleetArmOutputs(o, runs[i].name, a.r); err != nil {
			return nil, err
		}
		events += int64(a.events)
		placements += a.placements
		transits += a.transits
		build += a.build
		runT += a.run
	}
	o["sim.events"] = events
	o["fleet.placements"] = placements
	o["fleet.transitions"] = transits
	it.setup = build

	it.layer["fleet.setup_host_s"] = build.Seconds()
	it.layer["fleet.run_host_s"] = runT.Seconds()
	it.layer["fleet.placements"] = float64(placements)
	it.layer["fleet.transitions"] = float64(transits)
	it.layer["fleet.ns_per_placement"] = float64(runT.Nanoseconds()) / float64(placements)
	it.layer["fleet.jobs_completed_ratio"] = float64(o["fleet.jobs_completed"]) / float64(o["fleet.jobs_total"])
	it.layer["fleet.drains"] = float64(o["fleet.drains"])
	it.layer["fleet.interrupts"] = float64(o["fleet.interrupts"])
	it.layer["sim.events"] = float64(events)
	it.layer["sim.ns_per_event"] = float64(runT.Nanoseconds()) / float64(events)
	return o, nil
}
