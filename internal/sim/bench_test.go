package sim

import (
	"runtime"
	"testing"
	"time"
)

// reportEventsPerSec attaches the kernel's dispatched-events-per-wall-second
// rate, the headline number tracked in BENCH_sim.json.
func reportEventsPerSec(b *testing.B, e *Engine) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(e.Events())/s, "events/sec")
	}
}

// BenchmarkEventThroughput measures raw scheduler throughput: how many
// timer events the kernel retires per wall second.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventsPerSec(b, e)
}

// BenchmarkProcessPingPong measures the cost of a queue handoff between two
// processes (two context switches per op).
func BenchmarkProcessPingPong(b *testing.B) {
	e := NewEngine(1)
	q1 := NewQueue[int](e, "q1", 0)
	q2 := NewQueue[int](e, "q2", 0)
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Send(p, i)
			q2.Recv(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Recv(p)
			q2.Send(p, i)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventsPerSec(b, e)
}

// BenchmarkManyBlockedProcs measures wakeup fan-out with 1000 waiters.
func BenchmarkManyBlockedProcs(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		ev := NewEvent(e)
		for w := 0; w < 1000; w++ {
			e.Spawn("w", func(p *Proc) { ev.Wait(p) })
		}
		e.After(time.Microsecond, ev.Fire)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	reportEventsPerSec(b, e)
}

// BenchmarkSameTimeBatch measures the ready-ring batch path: per op, 256
// processes are spawned, all wake at the same instant, and retire — the
// spawn/dispatch/retire churn of a collective fan-out. With the pooled spawn
// path (Proc + coroutine reuse, closure-free start events) the steady state
// allocates nothing in the kernel; the shared worker body and reusable
// WaitGroup keep the benchmark itself allocation-free too, so allocs/op
// measures the kernel (regression guard: TestSameTimeBatchAllocs).
func BenchmarkSameTimeBatch(b *testing.B) {
	e := NewEngine(1)
	const fanout = 256
	wg := NewWaitGroup(e)
	worker := func(p *Proc) {
		p.Sleep(time.Microsecond) // all wake at the same tick
		wg.Done()
	}
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			wg.Add(fanout)
			for w := 0; w < fanout; w++ {
				p.SpawnChild("w", worker)
			}
			wg.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventsPerSec(b, e)
}

// TestSameTimeBatchAllocs is the allocs-per-op regression guard for the
// same-time-batch dispatch path: after warmup (pool populated, tables grown)
// a 256-process batch must stay at or below 16 allocations — it was 1285
// before the spawn path was pooled.
func TestSameTimeBatchAllocs(t *testing.T) {
	e := NewEngine(1)
	const fanout = 256
	const warm, measured = 32, 128
	wg := NewWaitGroup(e)
	worker := func(p *Proc) {
		p.Sleep(time.Microsecond)
		wg.Done()
	}
	var start, end runtime.MemStats
	e.Spawn("driver", func(p *Proc) {
		batch := func() {
			wg.Add(fanout)
			for w := 0; w < fanout; w++ {
				p.SpawnChild("w", worker)
			}
			wg.Wait(p)
		}
		for i := 0; i < warm; i++ {
			batch()
		}
		runtime.ReadMemStats(&start)
		for i := 0; i < measured; i++ {
			batch()
		}
		runtime.ReadMemStats(&end)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	perOp := float64(end.Mallocs-start.Mallocs) / measured
	if perOp > 16 {
		t.Fatalf("same-time batch dispatch allocates %.1f/op, budget 16", perOp)
	}
}

// BenchmarkQueueChurn measures sustained queue traffic with a bounded
// backlog — the pattern the ring-buffer storage is built for.
func BenchmarkQueueChurn(b *testing.B) {
	e := NewEngine(1)
	q := NewQueue[int](e, "churn", 8)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Send(p, i)
		}
		q.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := q.Recv(p); !ok {
				return
			}
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventsPerSec(b, e)
}

// BenchmarkFlowStep is BenchmarkProcessPingPong's shape on flows: per op,
// flow a wakes flow b and parks, and b wakes a back — two step invocations
// from the run loop where the ping-pong pays two coroutine switches. The
// gap between the two is what converting the flow callers to processes
// would cost.
func BenchmarkFlowStep(b *testing.B) {
	e := NewEngine(1)
	var pa, pb *Proc
	rounds, finished := 0, false
	pb = e.SpawnFlow("b", func(p *Proc, _ int) {
		if finished {
			p.FlowEnd()
			return
		}
		if rounds > 0 {
			pa.WakeDetached()
		}
		p.FlowPark("pong", "")
	})
	pa = e.SpawnFlow("a", func(p *Proc, _ int) {
		if rounds == b.N {
			finished = true
			pb.WakeDetached()
			p.FlowEnd()
			return
		}
		rounds++
		pb.WakeDetached()
		p.FlowPark("ping", "")
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventsPerSec(b, e)
}
