package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// settledGoroutines returns the goroutine count once it has held steady for
// ten consecutive millisecond polls (or after a second), so goroutines that
// earlier tests left exiting do not skew a baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i, steady := 0, 0; i < 1000 && steady < 10; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			steady++
		} else {
			n, steady = m, 0
		}
	}
	return n
}

// TestShutdownReleasesCoroutines pins that Shutdown leaves no coroutine
// behind, whichever state a Proc is in when the run ends: parked on a
// queue, idle in the pool, or recycled from the pool for a life whose
// start event never fired.
func TestShutdownReleasesCoroutines(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine(1)
	// A first wave fills the pool with eight idle coroutines.
	for i := 0; i < 8; i++ {
		e.Spawn("wave", func(p *Proc) { p.Sleep(time.Microsecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Four recycled Procs park forever; the stopper recycles two more for
	// lives that never start, then returns its own Proc to the pool.
	never := NewQueue[int](e, "never", 0)
	for i := 0; i < 4; i++ {
		e.Spawn("parked", func(p *Proc) { never.Recv(p) })
	}
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Stop()
		for i := 0; i < 2; i++ {
			p.SpawnChild("unstarted", func(p *Proc) { p.Sleep(time.Hour) })
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.LiveProcs(); got != 6 {
		t.Fatalf("live = %d, want 4 parked + 2 unstarted", got)
	}
	if got := len(e.procFree); got != 2 {
		t.Fatalf("pool holds %d idle procs, want 2", got)
	}
	if n := runtime.NumGoroutine(); n < base+8 {
		t.Fatalf("goroutines = %d, want at least %d with 8 coroutines alive", n, base+8)
	}
	e.Shutdown()
	if e.LiveProcs() != 0 || e.procFree != nil {
		t.Fatalf("after shutdown: live = %d, pool = %d", e.LiveProcs(), len(e.procFree))
	}
	if n := settledGoroutines(); n > base {
		t.Fatalf("goroutines = %d after shutdown, baseline %d", n, base)
	}
}

// TestProcPanicSurfacesKillDoesNot pins the two unwind paths of a
// coroutine: a real panic, on a fresh or a pooled coroutine, becomes the
// run's error; the killSentinel unwind of Shutdown runs the process's
// defers and is not an error.
func TestProcPanicSurfacesKillDoesNot(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		e := NewEngine(1)
		if pooled {
			e.Spawn("warm", func(p *Proc) {})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		e.Spawn("boom", func(p *Proc) {
			p.Sleep(time.Millisecond)
			panic("kaboom")
		})
		err := e.Run()
		if err == nil || !strings.Contains(err.Error(), `sim: process "boom" panicked: kaboom`) {
			t.Fatalf("pooled=%v: Run = %v, want the boom panic", pooled, err)
		}
		e.Shutdown()
	}

	e := NewEngine(1)
	unwound := false
	never := NewEvent(e)
	e.Spawn("daemon", func(p *Proc) {
		defer func() { unwound = true }()
		never.Wait(p)
	})
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !unwound {
		t.Fatal("Shutdown did not unwind the parked process's defers")
	}
	if e.failure != nil {
		t.Fatalf("a killSentinel unwind surfaced as %v", e.failure)
	}
}

// windowsWorkload parks processes across many RunUntil windows: a queue
// ping-pong paced by sleeps and a same-instant broadcast per round.
func windowsWorkload(e *Engine) *Recorder {
	rec := &Recorder{}
	e.SetTracer(rec)
	ping := NewQueue[int](e, "ping", 0)
	pong := NewQueue[int](e, "pong", 0)
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 50; i++ {
			ping.Send(p, i)
			v, _ := pong.Recv(p)
			p.Trace("pong", string(rune('a'+v%26)))
			p.Sleep(300 * time.Microsecond)
		}
		ping.Close()
	})
	e.Spawn("b", func(p *Proc) {
		for {
			v, ok := ping.Recv(p)
			if !ok {
				return
			}
			p.Sleep(170 * time.Microsecond)
			ev := NewEvent(e)
			for w := 0; w < 3; w++ {
				p.SpawnChild("w", func(p *Proc) { ev.Wait(p) })
			}
			ev.Fire()
			pong.Send(p, v)
		}
	})
	return rec
}

// TestRunUntilWindowsAcrossGoroutines drives one engine through alternating
// RunUntil windows from two different goroutines, with processes parked
// across every window boundary — the pattern a partition worker pool
// produces. Under -race it pins the happens-before edges of the coroutine
// switch; in any mode the trace must match a single-goroutine run.
func TestRunUntilWindowsAcrossGoroutines(t *testing.T) {
	serial := NewEngine(1)
	want := windowsWorkload(serial)
	if err := serial.Run(); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(1)
	got := windowsWorkload(e)
	type window struct {
		deadline Time
		done     chan error
	}
	workers := [2]chan window{make(chan window), make(chan window)}
	for _, in := range workers {
		go func(in chan window) {
			for w := range in {
				w.done <- e.RunUntil(w.deadline)
			}
		}(in)
	}
	const step = 97 * time.Microsecond
	for i := 1; e.LiveProcs() > 0; i++ {
		if i > 10000 {
			t.Fatal("windows never drained the workload")
		}
		w := window{deadline: Time(i) * Time(step), done: make(chan error)}
		workers[i%2] <- w
		if err := <-w.done; err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range workers {
		close(in)
	}
	e.Shutdown()
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatalf("windowed run diverged from the serial run (%d vs %d records)", len(got.Records), len(want.Records))
	}
}

// TestEventHeapOrderOracle checks the typed heap against sort.Slice by
// (t, key, seq) under random interleavings of push and pop, with key 0 (no
// perturbation) and with random keys that collide often, and after an
// in-place re-key and re-heapify as EnablePerturbation does.
func TestEventHeapOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	less := func(a, b *event) bool {
		if a.t != b.t {
			return a.t < b.t
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.seq < b.seq
	}
	for round := 0; round < 200; round++ {
		perturbed := round%2 == 1
		var h eventHeap
		var model []*event
		seq := uint64(0)
		newEvent := func() *event {
			seq++
			ev := &event{t: Time(rng.Intn(16)), seq: seq}
			if perturbed {
				ev.key = uint64(rng.Intn(4))
			}
			return ev
		}
		popCheck := func() {
			sort.Slice(model, func(i, j int) bool { return less(model[i], model[j]) })
			got := h.pop()
			if got != model[0] {
				t.Fatalf("round %d: popped (t=%d key=%d seq=%d), oracle says (t=%d key=%d seq=%d)",
					round, got.t, got.key, got.seq, model[0].t, model[0].key, model[0].seq)
			}
			model = model[1:]
		}
		for op := 0; op < 300; op++ {
			if len(model) == 0 || rng.Intn(3) != 0 {
				ev := newEvent()
				h.push(ev)
				model = append(model, ev)
			} else {
				popCheck()
			}
		}
		if perturbed {
			for _, ev := range h {
				ev.key = uint64(rng.Intn(4))
			}
			h.init()
		}
		for len(model) > 0 {
			popCheck()
		}
		if len(h) != 0 {
			t.Fatalf("round %d: heap holds %d events after the oracle drained", round, len(h))
		}
	}
}
