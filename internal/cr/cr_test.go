package cr_test

import (
	"testing"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/core"
	"ibmig/internal/cr"
	"ibmig/internal/metrics"
	"ibmig/internal/npb"
	"ibmig/internal/sim"
)

// launchJob starts LU class S (32 ranks, 4 ppn) on an 8-node cluster with 4
// PVFS servers — the paper's node:server ratio, which is what makes the
// shared file system the bottleneck.
func launchJob(t *testing.T) (*sim.Engine, *cluster.Cluster, *core.Framework, *npb.Result, npb.Workload) {
	t.Helper()
	e := sim.NewEngine(23)
	c := cluster.New(e, cluster.Config{ComputeNodes: 8, SpareNodes: 1, PVFSServers: 4})
	w := npb.New(npb.LU, npb.ClassS, 32)
	res := npb.NewResult(w.Ranks)
	fw := core.Launch(c, w, 4, res, core.Options{Hash: true})
	return e, c, fw, res, w
}

func TestCheckpointCycleExt3(t *testing.T) {
	e, c, fw, res, w := launchJob(t)
	var rep *metrics.Report
	var runner *cr.Runner
	e.Spawn("ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(20 * time.Millisecond)
		runner = cr.NewRunner(c, fw.W, cr.Ext3, true)
		rep = runner.FullCycle(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	// App unharmed.
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d finished %d/%d iterations", i, n, w.Iterations)
		}
	}
	// All four phases present; total volume = whole-job images.
	for _, ph := range []string{metrics.PhaseStall, metrics.PhaseCkpt, metrics.PhaseResume, metrics.PhaseRestart} {
		if rep.Phase(ph) <= 0 {
			t.Errorf("phase %q missing", ph)
		}
	}
	var want int64
	for _, rk := range fw.W.Ranks() {
		want += rk.OS.ImageSize() + 64 + 64*int64(len(rk.OS.Segments))
	}
	if rep.BytesMoved != want {
		t.Errorf("CR volume = %d, want %d", rep.BytesMoved, want)
	}
	if !runner.Verified {
		t.Error("restart did not reproduce bit-identical images")
	}
}

func TestCheckpointCyclePVFS(t *testing.T) {
	e, c, fw, _, _ := launchJob(t)
	var rep *metrics.Report
	var runner *cr.Runner
	e.Spawn("ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(20 * time.Millisecond)
		runner = cr.NewRunner(c, fw.W, cr.PVFS, true)
		rep = runner.FullCycle(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !runner.Verified {
		t.Fatal("PVFS restart lost image identity")
	}
	if rep.Phase(metrics.PhaseCkpt) <= 0 || rep.Phase(metrics.PhaseRestart) <= 0 {
		t.Fatal("missing phases")
	}
	// All checkpoint bytes crossed PVFS.
	if got := c.PVFS.BytesWritten; got != rep.BytesMoved {
		t.Errorf("PVFS received %d bytes, report says %d", got, rep.BytesMoved)
	}
}

func TestPVFSSlowerThanExt3UnderContention(t *testing.T) {
	// The paper's central storage observation: dumping all images to the
	// shared PVFS is slower than node-local ext3 because the streams contend
	// on 4 server disks instead of spreading over all node disks.
	run := func(target cr.Target) sim.Duration {
		e, c, fw, _, _ := launchJob(t)
		var d sim.Duration
		e.Spawn("ctl", func(p *sim.Proc) {
			fw.W.WaitReady(p)
			p.Sleep(20 * time.Millisecond)
			rep, err := cr.NewRunner(c, fw.W, target, false).Checkpoint(p)
			if err != nil {
				t.Error(err)
				e.Stop()
				return
			}
			d = rep.Phase(metrics.PhaseCkpt)
			fw.W.WaitDone(p)
			e.Stop()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
		return d
	}
	ext3 := run(cr.Ext3)
	pvfs := run(cr.PVFS)
	if pvfs <= ext3 {
		t.Fatalf("PVFS checkpoint (%v) not slower than ext3 (%v)", pvfs, ext3)
	}
}

func TestMigrationBeatsFullCRCycle(t *testing.T) {
	// The headline comparison (Fig. 7): handling a node failure by migration
	// is faster than a full CR cycle, and moves ~ranks/ppn× less data.
	e, c, fw, _, _ := launchJob(t)
	var migTotal, crTotal sim.Duration
	var migBytes, crBytes int64
	e.Spawn("ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(20 * time.Millisecond)
		done := fw.TriggerMigration(p, "node02")
		done.Wait(p)
		migTotal = fw.Reports[0].Total()
		migBytes = fw.Reports[0].BytesMoved
		rep := cr.NewRunner(c, fw.W, cr.PVFS, false).FullCycle(p)
		crTotal = rep.Total()
		crBytes = rep.BytesMoved
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if migTotal >= crTotal {
		t.Fatalf("migration (%v) not faster than CR full cycle (%v)", migTotal, crTotal)
	}
	// 32 ranks, 4 per node: migration moves 1/8 of the data.
	if ratio := float64(crBytes) / float64(migBytes); ratio < 7.5 || ratio > 8.5 {
		t.Fatalf("CR/migration data ratio = %.2f, want ~8", ratio)
	}
}

func TestRestartBeforeCheckpointPanics(t *testing.T) {
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.Config{ComputeNodes: 2, SpareNodes: 1, PVFSServers: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := &cr.Runner{C: c}
	r.Restart(nil)
}

func TestWriteAggregationSpeedsUpCheckpoints(t *testing.T) {
	// Node-level write aggregation eliminates inter-stream seeking. Its win
	// needs real contention — the paper's 8 writers per node — so this test
	// uses 64 ranks at 8 per node (the op overheads that aggregation
	// serializes must be amortized over enough interleaved streams).
	run := func(target cr.Target, aggregate bool) sim.Duration {
		e := sim.NewEngine(23)
		c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: 1, PVFSServers: 4})
		w := npb.New(npb.LU, npb.ClassS, 32)
		res := npb.NewResult(w.Ranks)
		fw := core.Launch(c, w, 8, res, core.Options{})
		var d sim.Duration
		e.Spawn("ctl", func(p *sim.Proc) {
			fw.W.WaitReady(p)
			p.Sleep(10 * time.Millisecond)
			runner := cr.NewRunner(c, fw.W, target, true)
			runner.Aggregate = aggregate
			rep := runner.FullCycle(p)
			if !runner.Verified {
				t.Errorf("aggregate=%v target=%v lost image identity", aggregate, target)
			}
			d = rep.Phase(metrics.PhaseCkpt)
			fw.W.WaitDone(p)
			e.Stop()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
		return d
	}
	for _, target := range []cr.Target{cr.Ext3, cr.PVFS} {
		plain := run(target, false)
		agg := run(target, true)
		if agg >= plain {
			t.Errorf("%v: aggregated checkpoint (%v) not faster than interleaved (%v)", target, agg, plain)
		}
	}
}

// TestCheckpointCycleExtentLeak is the extent leak guard: a full
// checkpoint→restart cycle plus Cleanup must return the process-wide
// live-extent level to its pre-cycle baseline. The baseline is taken after a
// first cycle so every lazily-materialized region (first TouchMemory, first
// checkpoint read) is already counted; the second cycle must then be
// extent-neutral for both storage targets.
func TestCheckpointCycleExtentLeak(t *testing.T) {
	for _, target := range []cr.Target{cr.Ext3, cr.PVFS} {
		e, c, fw, _, _ := launchJob(t)
		var base, after int64
		e.Spawn("ctl", func(p *sim.Proc) {
			fw.W.WaitReady(p)
			p.Sleep(20 * time.Millisecond)
			warm := cr.NewRunner(c, fw.W, target, true)
			warm.FullCycle(p)
			warm.Cleanup()
			base = metrics.CaptureDataPlane().LiveExtents

			runner := cr.NewRunner(c, fw.W, target, true)
			runner.FullCycle(p)
			if !runner.Verified {
				t.Errorf("%v: restart lost image identity", target)
			}
			runner.Cleanup()
			after = metrics.CaptureDataPlane().LiveExtents
			fw.W.WaitDone(p)
			e.Stop()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
		if after != base {
			t.Errorf("%v: live extents %d after cycle+cleanup, want pre-cycle baseline %d (leak of %d)",
				target, after, base, after-base)
		}
	}
}
