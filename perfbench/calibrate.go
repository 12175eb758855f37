package main

import (
	"container/heap"
	"hash/fnv"
	"runtime"
	"time"
)

// The host this benchmark runs on shares its cores with other tenants, and
// its speed drifts by tens of percent over minutes (README.md). Right after
// each timed section, and before the first, the benchmark therefore times a
// fixed calibration kernel, and scales the section's host times by the
// kernel's speed around it.
//
// The kernel is a stand-in for the simulator's hot path that uses no code of
// the repository, so a change to the simulator cannot move it: a
// discrete-event loop over a binary heap that hands control to one goroutine
// per process through one-slot channels, as the engine's handshake does, each
// step allocating and hashing a small buffer and touching a map. Its inputs are fixed; it does the same work on
// every call.
const (
	calProcs = 64
	calSteps = 240_000
)

// calRefS is the kernel's median wall time on the reference host (a quiet
// 2-vCPU Intel Xeon VM, go1.24.0, GOMAXPROCS 2). Scaled times read in that
// host's seconds.
const calRefS = 0.60

type calEvent struct {
	at   uint64
	seq  uint64
	proc int
}

type calQueue []calEvent

func (q calQueue) Len() int { return len(q) }
func (q calQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q calQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)   { *q = append(*q, x.(calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calSink keeps the kernel's result live.
var calSink uint64

// calibrate collects garbage, runs the kernel once and returns its wall time
// in seconds.
func calibrate() float64 {
	runtime.GC()
	t0 := time.Now()
	calSink += calKernel()
	return time.Since(t0).Seconds()
}

// calKernel runs calSteps events and returns a digest of the work, so the
// compiler cannot drop it.
func calKernel() uint64 {
	wake := make([]chan bool, calProcs)
	yield := make(chan uint64, 1)
	done := make(chan struct{})
	for p := range wake {
		wake[p] = make(chan bool, 1)
		go func(p int, wake <-chan bool) {
			defer func() { done <- struct{}{} }()
			state := map[uint64]uint64{}
			x := uint64(p)*0x9e3779b97f4a7c15 + 1
			for <-wake {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf := make([]byte, 64+x%448)
				for i := range buf {
					buf[i] = byte(x >> (i % 8 * 8))
				}
				h := fnv.New64a()
				h.Write(buf)
				state[x%256] += h.Sum64()
				yield <- 1 + x%1000
			}
		}(p, wake[p])
	}

	q := make(calQueue, 0, calProcs)
	for p := 0; p < calProcs; p++ {
		heap.Push(&q, calEvent{at: uint64(p), seq: uint64(p), proc: p})
	}
	var digest uint64
	for seq := uint64(calProcs); seq < calProcs+calSteps; seq++ {
		ev := heap.Pop(&q).(calEvent)
		wake[ev.proc] <- true
		d := <-yield
		digest = digest*31 + d
		heap.Push(&q, calEvent{at: ev.at + d, seq: seq, proc: ev.proc})
	}
	for p := range wake {
		wake[p] <- false
		<-done
	}
	return digest
}
