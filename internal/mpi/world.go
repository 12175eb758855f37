// Package mpi implements a miniature MPI runtime over the simulated
// InfiniBand fabric, reproducing the pieces of MVAPICH2 that the paper's
// migration framework depends on:
//
//   - ranks with tagged point-to-point messaging (eager for small messages,
//     synchronous rendezvous for large ones) over per-rank-pair reliable
//     connections, each with a registered rendezvous buffer whose remote key
//     the peer caches;
//   - collectives (Barrier, Bcast, Reduce, Allreduce) built on p2p;
//   - the checkpoint/restart suspension protocol (the paper's Phase 1 and
//     Phase 4): on request, every rank drains its in-flight messages, tears
//     down its communication endpoints (revoking cached remote keys), waits
//     for the framework to act, and then rebuilds endpoints — including a
//     serialized endpoint-information re-exchange through the job-launch
//     coordinator — before resuming.
//
// A migrated rank is rebound to its new node between suspension and resume;
// its connections are rebuilt from the new node's HCA automatically.
package mpi

import (
	"fmt"

	"ibmig/internal/calib"
	"ibmig/internal/ib"
	"ibmig/internal/proc"
	"ibmig/internal/sim"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Config tunes the runtime; zero values use calibrated defaults.
type Config struct {
	EagerThreshold     int64
	RendezvousBufSize  int64
	PMIExchangePerRank sim.Duration
	ComputeSlice       sim.Duration // polling granularity inside Compute
}

func (c Config) withDefaults() Config {
	if c.EagerThreshold == 0 {
		c.EagerThreshold = calib.EagerThreshold
	}
	if c.RendezvousBufSize == 0 {
		c.RendezvousBufSize = calib.RendezvousBufSize
	}
	if c.PMIExchangePerRank == 0 {
		c.PMIExchangePerRank = calib.PMIExchangePerRank
	}
	if c.ComputeSlice == 0 {
		c.ComputeSlice = 10 * 1e6 // 10ms
	}
	return c
}

// World is one MPI job: a set of ranks placed on nodes.
type World struct {
	E      *sim.Engine
	fabric *ib.Fabric
	cfg    Config
	ranks  []*Rank

	ready *sim.Event
	done  *sim.Event
	pmi   *sim.Resource // central job-launch coordinator (endpoint exchange)

	running int

	// ftMode turns send errors from panics into retries with connection
	// rebuild (see Rank.sendFT) — required when the framework may fail and
	// recover links underneath a running application. The retries are not
	// bounded: they end when the send succeeds, the peer rank finishes, or a
	// suspension parks the rank.
	ftMode     bool
	ftDropped  int64
	rebuilding map[[2]int]bool // rank pairs with a connection rebuild in flight

	// hooked tracks nodes whose HCA carries our fail hook (lazy connections
	// have no QP for the fabric to break, so the world must learn of faults
	// itself). One hook per node, kept across Rebind.
	hooked map[string]bool
}

// NewWorld creates a world with one rank per placement entry; placement[i] is
// the node name hosting rank i. Every node must have an HCA on the fabric.
func NewWorld(e *sim.Engine, fabric *ib.Fabric, placement []string, cfg Config) *World {
	w := &World{
		E:          e,
		fabric:     fabric,
		cfg:        cfg.withDefaults(),
		ready:      sim.NewEvent(e),
		done:       sim.NewEvent(e),
		pmi:        sim.NewResource(e, "mpi.pmi", 1),
		rebuilding: make(map[[2]int]bool),
		hooked:     make(map[string]bool),
	}
	for i, node := range placement {
		if fabric.HCA(node) == nil {
			panic("mpi: no HCA for node " + node)
		}
		w.ranks = append(w.ranks, &Rank{
			w:       w,
			id:      i,
			node:    node,
			mailbox: sim.NewQueue[inMsg](e, fmt.Sprintf("mpi.mbox.%d", i), 0),
			conns:   make([]*conn, len(placement)),
			opsIdle: sim.NewGate(e, true),
		})
		w.hookNode(node)
	}
	return w
}

// hookNode subscribes the world to a node adapter's failures, once per node.
func (w *World) hookNode(node string) {
	if w.hooked[node] {
		return
	}
	h := w.fabric.HCA(node)
	if h == nil {
		return
	}
	w.hooked[node] = true
	h.OnFail(func() { w.breakLazyConns(node) })
}

// breakLazyConns marks every still-lazy connection touching the failed node
// as broken and wakes its dormant pump so it exits — the lazy counterpart of
// HCA.Fail breaking materialized QPs (which the fabric has already done when
// this hook runs). Walk order is ascending rank then ascending peer, so the
// wakeups are deterministic.
func (w *World) breakLazyConns(node string) {
	for _, r := range w.ranks {
		for _, c := range r.conns {
			if c == nil || c.qp != nil || c.broken || c.closed {
				continue
			}
			if r.node != node && w.ranks[c.peer].node != node {
				continue
			}
			c.broken = true
			c.pump.WakeDetached()
		}
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Ranks returns all ranks in rank order.
func (w *World) Ranks() []*Rank { return w.ranks }

// RanksOn returns the ranks currently placed on the given node, in rank
// order.
func (w *World) RanksOn(node string) []*Rank {
	var out []*Rank
	for _, r := range w.ranks {
		if r.node == node {
			out = append(out, r)
		}
	}
	return out
}

// Start builds the full connection mesh and launches app on every rank. The
// Ready event fires when the mesh is up (immediately before rank 0 starts);
// Done fires when every rank's app function has returned.
func (w *World) Start(app func(r *Rank)) {
	w.running = len(w.ranks)
	w.E.Spawn("mpi.launch", func(p *sim.Proc) {
		for i := range w.ranks {
			for j := i + 1; j < len(w.ranks); j++ {
				w.connectPair(p, w.ranks[i], w.ranks[j])
			}
		}
		w.ready.Fire()
		for _, r := range w.ranks {
			r := r
			w.E.Spawn(fmt.Sprintf("mpi.rank.%d", r.id), func(rp *sim.Proc) {
				r.p = rp
				app(r)
				// A suspension requested as the app exits must still be
				// honoured so the coordinator is not left waiting.
				for r.suspendReq {
					r.doSuspend()
				}
				r.finished = true
				w.running--
				if w.running == 0 {
					w.done.Fire()
				}
			})
		}
	})
}

// SetFaultTolerant switches the runtime's reaction to send-path transport
// errors. Off (the default), a failed verbs call panics — the historical
// behaviour, correct while every fault arrives with the job globally
// suspended. On, sends are synchronous end to end (so a message lost on a
// breaking link surfaces as a sender-side error) and retry on a
// deterministic cadence, rebuilding the rank-pair connection when possible
// and honouring a pending suspension mid-retry so a recovery can restore
// the job under them. A message is abandoned (counted in FTDropped) only
// when its destination rank has already finished.
func (w *World) SetFaultTolerant(on bool) { w.ftMode = on }

// FaultTolerant reports whether the fault-tolerant send path is active.
func (w *World) FaultTolerant() bool { return w.ftMode }

// FTDropped returns the number of messages abandoned because their
// destination rank had already finished.
func (w *World) FTDropped() int64 { return w.ftDropped }

// hcaUp reports whether a node's adapter is attached and currently working.
func (w *World) hcaUp(node string) bool {
	h := w.fabric.HCA(node)
	return h != nil && !h.Failed()
}

// WaitReady blocks until the job is launched.
func (w *World) WaitReady(p *sim.Proc) { w.ready.Wait(p) }

// WaitDone blocks until all ranks have finished.
func (w *World) WaitDone(p *sim.Proc) { w.done.Wait(p) }

// Done reports whether all ranks have finished.
func (w *World) Done() bool { return w.done.Fired() }

// Shutdown tears down all connections so pump daemons exit, releasing every
// rendezvous buffer's extents.
func (w *World) Shutdown() {
	for _, r := range w.ranks {
		for i, c := range r.conns {
			if c == nil {
				continue
			}
			c.destroy()
			r.conns[i] = nil
		}
	}
}

// Rebind moves a rank to a new node (after its process image has been
// restarted there) and attaches the restored OS process. Must only be called
// while the world is suspended.
func (w *World) Rebind(rank int, node string, os *proc.Process) {
	r := w.ranks[rank]
	r.node = node
	w.hookNode(node)
	if os != nil {
		r.OS = os
	}
}

// BytesSent returns the total MPI payload bytes sent by all ranks.
func (w *World) BytesSent() int64 {
	var n int64
	for _, r := range w.ranks {
		n += r.BytesSent
	}
	return n
}

// connectPair establishes the reliable connection between two ranks. The
// calling process pays the full setup cost here — QP bring-up plus both
// rendezvous-buffer registrations, the same three sleeps in the same order
// the eager mesh paid — but the fabric state itself is created lazily on
// first use (see conn.materialize with the prepaid ib constructors). Each
// side's receive pump is spawned now as a dormant flow, so the process
// start/end trace records match the eager mesh exactly.
func (w *World) connectPair(p *sim.Proc, a, b *Rank) {
	p.Sleep(calib.IBQPSetup)
	p.Sleep(ib.MRRegisterCost(w.cfg.RendezvousBufSize))
	p.Sleep(ib.MRRegisterCost(w.cfg.RendezvousBufSize))
	ca := &conn{r: a, peer: b.id}
	cb := &conn{r: b, peer: a.id}
	ca.buddy, cb.buddy = cb, ca
	if w.fabric.HCA(a.node).Failed() || w.fabric.HCA(b.node).Failed() {
		// An eager ConnectQP would have returned endpoints already broken;
		// the pumps below see the flag on their start step and exit at once.
		ca.broken, cb.broken = true, true
	}
	a.conns[b.id] = ca
	b.conns[a.id] = cb
	a.startPump(ca)
	b.startPump(cb)
}
