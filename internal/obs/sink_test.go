package obs

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ibmig/internal/sim"
)

// drainAll empties s into a fresh slice.
func drainAll(s *Subscriber) []Event {
	return s.Drain(nil)
}

func TestSubscribeDeliversEvents(t *testing.T) {
	c := New()
	sub := c.Subscribe(64)
	root := c.StartSpan(100, "migration#1", "jm", 0)
	c.SpanAttr(root, "src", "node03")
	c.Add("ib.rdma_reads", 2)
	c.SetGauge("pool.free", 7)
	c.Hist("lat", []float64{10, 20}).Observe(15)
	c.Usage(200, "disk.n0", 1, 2)
	c.EndSpan(300, root)
	c.Heartbeat(400, 1234)

	evs := drainAll(sub)
	wantKinds := []EventKind{EvSpanOpen, EvSpanAttr, EvCounter, EvGauge, EvHist, EvUsage, EvSpanClose, EvHeartbeat}
	if len(evs) != len(wantKinds) {
		t.Fatalf("got %d events, want %d", len(evs), len(wantKinds))
	}
	for i, k := range wantKinds {
		if evs[i].Kind != k {
			t.Fatalf("event %d kind %v, want %v", i, evs[i].Kind, k)
		}
	}
	if evs[0].Span != root || evs[0].Name != "migration#1" || evs[0].Actor != "jm" || evs[0].T != 100 {
		t.Fatalf("span_open event %+v", evs[0])
	}
	// Untimed kinds are stamped with the last intrinsic timestamp.
	if evs[2].T != 100 || evs[2].Value != 2 {
		t.Fatalf("counter event %+v", evs[2])
	}
	if evs[5].Value != 1 || evs[5].Capacity != 2 || evs[5].T != 200 {
		t.Fatalf("usage event %+v", evs[5])
	}
	if evs[6].Span != root || evs[6].T != 300 {
		t.Fatalf("span_close event %+v", evs[6])
	}
	if evs[7].Value != 1234 {
		t.Fatalf("heartbeat event %+v", evs[7])
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d, want 0", sub.Dropped())
	}
	if more := drainAll(sub); len(more) != 0 {
		t.Fatalf("second drain returned %d events", len(more))
	}
}

func TestRingDropsOldest(t *testing.T) {
	c := New()
	sub := c.Subscribe(1) // clamped to the 16 minimum
	c.StartSpan(0, "x", "a", 0)
	for i := 0; i < 20; i++ {
		c.Add("n", int64(i))
	}
	evs := drainAll(sub)
	if len(evs) != 16 {
		t.Fatalf("ring held %d events, want 16", len(evs))
	}
	// 21 events published (span open + 20 counters): the oldest 5 are gone
	// and the survivors are the most recent window, in order.
	if sub.Dropped() != 5 {
		t.Fatalf("dropped %d, want 5", sub.Dropped())
	}
	if evs[len(evs)-1].Value != 19 {
		t.Fatalf("newest surviving event %+v, want counter delta 19", evs[len(evs)-1])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Value != evs[i-1].Value+1 {
			t.Fatalf("survivors out of order at %d: %v then %v", i, evs[i-1].Value, evs[i].Value)
		}
	}
}

func TestUnsubscribeWakesParkedDrainer(t *testing.T) {
	c := New()
	sub := c.Subscribe(16)
	got := make(chan int, 1)
	go func() {
		n := 0
		for {
			evs := drainAll(sub)
			n += len(evs)
			if len(evs) == 0 {
				if sub.Closed() {
					got <- n
					return
				}
				<-sub.Notify()
			}
		}
	}()
	c.Add("n", 1) // no intrinsic time yet: stamped at t=0
	c.Unsubscribe(sub)
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("drainer saw %d events, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drainer never observed Closed after Unsubscribe")
	}
	// Post-close publishes are discarded, not delivered.
	c.Add("n", 1)
	if evs := drainAll(sub); len(evs) != 0 {
		t.Fatalf("closed subscriber received %d events", len(evs))
	}
}

func TestSubscribeNilSafe(t *testing.T) {
	var c *Collector
	if c.Subscribe(16) != nil {
		t.Fatal("nil collector returned a subscriber")
	}
	c.Unsubscribe(nil)
	c.AttachFlight(nil)
	if c.Flight() != nil {
		t.Fatal("nil collector returned a flight recorder")
	}
	c.Heartbeat(0, 1)
	real := New()
	real.Unsubscribe(nil) // foreign/nil subscriber: no-op
}

func TestFanoutToMultipleSubscribers(t *testing.T) {
	c := New()
	a := c.Subscribe(64)
	b := c.Subscribe(64)
	c.StartSpan(10, "x", "jm", 0)
	c.Add("n", 1)
	ea, eb := drainAll(a), drainAll(b)
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("subscribers diverged: %+v vs %+v", ea, eb)
	}
	c.Unsubscribe(a)
	c.Add("n", 1)
	if len(drainAll(a)) != 0 {
		t.Fatal("unsubscribed ring still fed")
	}
	if len(drainAll(b)) != 1 {
		t.Fatal("remaining subscriber starved")
	}
}

// Histogram bucket bounds are checked strictly: re-requesting a histogram
// with identical or nil bounds is fine, different bounds panic.
func TestStrictHistBoundsMismatch(t *testing.T) {
	c := New()
	c.Hist("lat", []float64{10, 20})
	c.Hist("lat", []float64{10, 20})
	c.Hist("lat", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("bounds mismatch did not panic")
		}
	}()
	c.Hist("lat", []float64{1, 2, 3})
}

// TestActiveAtMatchesScan cross-checks the block index against the linear
// oracle on randomized span soups: open spans, appends between queries (index
// rebuilds), and Merge output (insertion order is not start order).
func TestActiveAtMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(n int) *Collector {
		c := New()
		for i := 0; i < n; i++ {
			start := sim.Time(rng.Int63n(10_000))
			id := c.StartSpan(start, "s", "a", 0)
			if rng.Intn(10) > 0 { // ~10% stay open
				c.EndSpan(start.Add(sim.Duration(rng.Int63n(800))), id)
			}
		}
		return c
	}
	check := func(t *testing.T, c *Collector) {
		t.Helper()
		for q := 0; q < 200; q++ {
			at := sim.Time(rng.Int63n(11_000))
			got, want := c.ActiveAt(at), c.activeAtScan(at)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ActiveAt(%d): %d hits, oracle %d", at, len(got), len(want))
			}
		}
	}
	c := mk(3000)
	check(t, c)
	// Appends after a query invalidate the index; it must rebuild.
	for i := 0; i < 500; i++ {
		start := sim.Time(rng.Int63n(10_000))
		c.EndSpan(start.Add(100), c.StartSpan(start, "late", "b", 0))
	}
	check(t, c)
	// CloseOpen moves Ends down from the open-span +inf; queries stay exact.
	c.CloseOpen(12_000)
	check(t, c)
	check(t, Merge(mk(800), mk(800)))
	if New().ActiveAt(5) != nil {
		t.Fatal("empty collector returned hits")
	}
}

// benchSpans builds a collector with n closed spans at increasing starts —
// the shape a long run produces.
func benchSpans(n int) *Collector {
	c := New()
	for i := 0; i < n; i++ {
		start := sim.Time(int64(i) * 50)
		c.EndSpan(start.Add(200), c.StartSpan(start, "s", "a", 0))
	}
	return c
}

// BenchmarkActiveAt vs BenchmarkActiveAtScan is the satellite win: the block
// index answers point queries sublinearly while the old implementation
// scanned every span ever recorded.
func BenchmarkActiveAt(b *testing.B) {
	c := benchSpans(100_000)
	c.ActiveAt(0) // build the index outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ActiveAt(sim.Time(int64(i%100_000) * 50))
	}
}

func BenchmarkActiveAtScan(b *testing.B) {
	c := benchSpans(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.activeAtScan(sim.Time(int64(i%100_000) * 50))
	}
}
