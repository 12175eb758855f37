package payload

import "testing"

// Release is the leak backstop: after a fleet of trees with churned content
// is released, the live-extent level returns exactly to its pre-test
// baseline.
func TestTreeReleaseReturnsToBaseline(t *testing.T) {
	baseLive := DataPlaneSnapshot().LiveExtents

	var trees []*Tree
	for i := 0; i < 32; i++ {
		tr := NewTree(Synth(uint64(i+1), 0, 1<<16))
		for j := 0; j < 8; j++ {
			tr.Splice(int64(j)*4096, 2048, Synth(uint64(1000+i*8+j), 0, 2048))
		}
		trees = append(trees, tr)
	}
	if live := DataPlaneSnapshot().LiveExtents; live <= baseLive {
		t.Fatalf("expected live-extent growth, have %d (baseline %d)", live, baseLive)
	}

	for _, tr := range trees {
		tr.Release()
	}
	if live := DataPlaneSnapshot().LiveExtents; live != baseLive {
		t.Errorf("live extents %d after release, want baseline %d", live, baseLive)
	}
}

// Splice-built trees stay coalesced: an overwrite split healed by
// re-splicing the original content leaves one extent.
func TestSpliceReCoalescesWithoutCompact(t *testing.T) {
	tr := NewTree(Synth(9, 0, 1<<20))
	tr.Splice(4096, 4096, Synth(10, 0, 4096))
	if got := tr.Extents(); got != 3 {
		t.Fatalf("overwrite split into %d extents, want 3", got)
	}
	tr.Splice(4096, 4096, Synth(9, 4096, 4096)) // restore the original run
	if got := tr.Extents(); got != 1 {
		t.Errorf("healed tree has %d extents, want 1 (seam coalescing)", got)
	}
	tr.Release()
}

func TestPeakLiveExtentsHighWater(t *testing.T) {
	ResetPeakLiveExtents()
	base := DataPlaneSnapshot().LiveExtents

	var trees []*Tree
	for i := 0; i < 100; i++ {
		trees = append(trees, NewTree(Synth(uint64(i+1), 0, 512)))
	}
	peak := DataPlaneSnapshot().PeakLiveExtents
	if peak < base+100 {
		t.Fatalf("peak %d, want >= %d", peak, base+100)
	}
	for _, tr := range trees {
		tr.Release()
	}
	if got := DataPlaneSnapshot().PeakLiveExtents; got != peak {
		t.Errorf("peak moved %d -> %d after release; the high-water mark is sticky", peak, got)
	}
	if prev := ResetPeakLiveExtents(); prev != peak {
		t.Errorf("reset returned %d, want the old peak %d", prev, peak)
	}
	if got := DataPlaneSnapshot().PeakLiveExtents; got != base {
		t.Errorf("peak %d after reset, want current level %d", got, base)
	}
}

// Steady-state splice churn allocates nothing beyond the extent nodes it
// creates: the insertion scratch is reused across calls. The allocs-per-op
// guard for the tree, in the spirit of TestSameTimeBatchAllocs for the
// event loop.
func TestSpliceChurnAllocs(t *testing.T) {
	tr := NewTree(Synth(1, 0, 64*4096))
	// Per-slot buffers with Off=0 never continue a neighbour's run, so the
	// tree holds a stable ~64 extents and every write replaces one node.
	bufs := make([]Buffer, 64)
	for i := range bufs {
		bufs[i] = Synth(uint64(2+i), 0, 4096)
	}
	churn := func(i int) {
		tr.Splice(int64(i%64)*4096, 4096, bufs[(i+i/64)%64])
	}
	for i := 0; i < 512; i++ { // cut the slots and warm the ins scratch
		churn(i)
	}
	const runs = 2000
	i := 512
	before := DataPlaneSnapshot().NodesAllocated
	avg := testing.AllocsPerRun(runs, func() {
		churn(i)
		i++
	})
	// AllocsPerRun makes one warm-up call before the measured runs.
	nodes := float64(DataPlaneSnapshot().NodesAllocated-before) / (runs + 1)
	if nodes == 0 {
		t.Fatal("churn created no nodes; test is vacuous")
	}
	if avg > nodes {
		t.Errorf("steady-state splice churn allocates %.2f objects/op, want <= %.2f (the nodes it creates)", avg, nodes)
	}
	tr.Release()
}
