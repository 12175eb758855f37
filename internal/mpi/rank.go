package mpi

import (
	"fmt"

	"ibmig/internal/calib"
	"ibmig/internal/ib"
	"ibmig/internal/mem"
	"ibmig/internal/payload"
	"ibmig/internal/proc"
	"ibmig/internal/sim"
)

// conn is one rank's endpoint of a rank-pair connection.
//
// Connections are lazy: connectPair pays the full setup cost (QP bring-up
// plus both rendezvous-buffer registrations) up front — so the simulated
// timeline is identical to an eagerly built mesh — but defers the fabric
// state (QP endpoints, pinned regions, remote keys) until the first message
// actually crosses the pair. On an N-rank job only the pairs that talk ever
// materialize; for nearest-neighbour kernels that turns O(N²) QPs, regions
// and pump state into O(N), which is where the bulk of the 2048-rank memory
// footprint lived.
type conn struct {
	r        *Rank
	peer     int
	qp       *ib.QP       // nil while the connection is lazy
	mr       *ib.MR       // local rendezvous buffer (pinned); nil while lazy
	peerRKey ib.RemoteKey // cached remote key of the peer's buffer
	broken   bool         // an adapter under the lazy pair failed
	closed   bool         // torn down (suspension, shutdown, FT rebuild)
	buddy    *conn        // the peer rank's endpoint of the same pair
	pump     *sim.Proc    // receive pump flow (dormant while lazy)
}

// logicalErr classifies a verbs call on a still-lazy connection, answering
// exactly what QP.err would answer had the pair been materialized: a downed
// adapter on either side dominates, then any form of closure.
func (c *conn) logicalErr() error {
	w := c.r.w
	if !w.hcaUp(c.r.node) || !w.hcaUp(w.ranks[c.peer].node) {
		return ib.ErrHCADown
	}
	if c.broken || c.closed || c.buddy.closed {
		return ib.ErrQPClosed
	}
	return nil
}

// brokenNow reports whether a send on this connection would fail, the lazy
// counterpart of QP.Broken.
func (c *conn) brokenNow() bool {
	if c.qp != nil {
		return c.qp.Broken()
	}
	return c.logicalErr() != nil
}

// ensure materializes the pair on first use. No simulated time passes — the
// setup cost was paid at connectPair — so the event sequence is untouched.
func (c *conn) ensure() error {
	if c.qp != nil {
		return nil
	}
	if err := c.logicalErr(); err != nil {
		return err
	}
	c.materialize()
	return nil
}

// materialize creates the fabric state for both endpoints of the pair:
// prepaid QPs, prepaid rendezvous-buffer registrations, crossed remote keys.
// The dormant pump flows are adopted as receivers on the new queues without
// waking them, so no event is scheduled. Orientation is canonical (lower
// rank first), matching the argument order an eager connectPair used.
func (c *conn) materialize() {
	a, b := c, c.buddy
	if b.r.id < a.r.id {
		a, b = b, a
	}
	w := a.r.w
	ha, hb := w.fabric.HCA(a.r.node), w.fabric.HCA(b.r.node)
	qa, qb := ib.ConnectQPPrepaid(ha, hb)
	mra := ha.RegisterMRPrepaid(newRendezvousRegion(w.cfg.RendezvousBufSize, a.r.id, b.r.id))
	mrb := hb.RegisterMRPrepaid(newRendezvousRegion(w.cfg.RendezvousBufSize, b.r.id, a.r.id))
	a.qp, a.mr, a.peerRKey = qa, mra, mrb.RKey()
	b.qp, b.mr, b.peerRKey = qb, mrb, mra.RKey()
	qa.AdoptRecvWaiter(a.pump)
	qb.AdoptRecvWaiter(b.pump)
}

// destroy tears down this endpoint. Materialized: revoke the pinned buffer,
// release its region's extents, close the QP (which wakes the pump off its
// receive queue to exit). Lazy: mark closed and wake the dormant pump so it
// can end — unless the fabric already broke the pair, in which case the pump
// was woken then, mirroring the double-Close no-op on a real queue. The caller clears the conns slot.
func (c *conn) destroy() {
	c.closed = true
	if c.qp != nil {
		c.mr.Deregister()
		c.mr.Region().Release()
		c.qp.Close()
		return
	}
	if !c.broken {
		c.pump.WakeDetached()
	}
}

func newRendezvousRegion(size int64, owner, peer int) *mem.Region {
	return mem.NewRegion(size, uint64(owner)<<20|uint64(peer))
}

// wireHdr is the MPI envelope carried as message metadata.
type wireHdr struct {
	From int
	Tag  int
}

const wireHdrSize = 16

// control kinds for mailbox messages.
const (
	ctlNone = iota
	ctlSuspend
)

// inMsg is a message as seen by the receiving rank.
type inMsg struct {
	from int
	tag  int
	data payload.Buffer
	ctl  int
}

// Rank is one MPI process. All communication methods must be called from the
// rank's own app function (MPI ranks are single-threaded here; the C/R-thread
// behaviour is folded into the call boundaries, where suspension requests are
// honoured).
type Rank struct {
	w       *World
	id      int
	node    string
	p       *sim.Proc
	mailbox *sim.Queue[inMsg]
	unexp   []inMsg
	// conns is indexed by peer rank; nil means no connection. A slice keeps
	// per-rank overhead at one word per peer and makes ascending-peer
	// iteration (the protocol's deterministic order) a plain scan.
	conns []*conn

	// OS is the backing simulated process (address space); set by the
	// cluster layer, checkpointed and migrated by the framework.
	OS *proc.Process

	suspendReq bool
	cycle      *suspendCycle
	finished   bool
	activeOps  int
	opsIdle    *sim.Gate

	collSeq int
	sendSeq uint64

	BytesSent   int64
	MsgsSent    int64
	ComputeTime sim.Duration
	Suspensions int
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// Node returns the rank's current node.
func (r *Rank) Node() string { return r.node }

// World returns the owning world.
func (r *Rank) World() *World { return r.w }

// Proc returns the rank's driving simulation process.
func (r *Rank) Proc() *sim.Proc { return r.p }

// poll honours a pending suspension request at an MPI call boundary.
func (r *Rank) poll() {
	if r.suspendReq {
		r.doSuspend()
	}
}

// startPump spawns the flow that forwards one connection's deliveries into
// the rank mailbox. As a flow it costs no goroutine or stack — essential for
// the O(ranks²) pump population — and its event sequence is identical to the
// goroutine pump it replaced: one start event at spawn, one wake per
// delivery batch, one end event at teardown.
func (r *Rank) startPump(c *conn) {
	c.pump = r.w.E.SpawnFlow(fmt.Sprintf("mpi.pump.%d<-%d", r.id, c.peer), c.pumpStep)
}

// pumpStep is the pump flow's state machine. While the connection is lazy
// the flow parks dormant (no queue exists to wait on); materialize adopts it
// as a receiver without waking it. Each wake drains every delivered message
// into the mailbox, exactly as the blocking Recv loop did.
func (c *conn) pumpStep(p *sim.Proc, _ int) {
	if c.qp == nil {
		if c.closed || c.broken {
			p.FlowEnd()
			return
		}
		p.FlowPark("queue.recv", "mpi.lazy")
		return
	}
	for {
		m, ok := c.qp.TryRecv()
		if !ok {
			break
		}
		h := m.Meta.(wireHdr)
		c.r.mailbox.TrySend(inMsg{from: h.From, tag: h.Tag, data: m.Data})
	}
	if c.qp.RecvClosed() {
		p.FlowEnd()
		return
	}
	c.qp.FlowRecvPark(p)
}

func (r *Rank) beginOp() {
	r.activeOps++
	if r.opsIdle != nil {
		r.opsIdle.Close()
	}
}

func (r *Rank) endOp() {
	r.activeOps--
	if r.activeOps == 0 && r.opsIdle != nil {
		r.opsIdle.Open()
	}
}

// Send transmits n synthetic payload bytes to rank `to` with the given tag,
// blocking per MPI semantics: eager messages return once posted, rendezvous
// messages once delivered.
func (r *Rank) Send(to, tag int, n int64) {
	r.sendSeq++
	r.SendData(to, tag, payload.Synth(uint64(r.id)<<40^uint64(tag)<<20^r.sendSeq, 0, n))
}

// SendData transmits an explicit payload (content preserved end to end).
func (r *Rank) SendData(to, tag int, data payload.Buffer) {
	r.poll()
	r.p.Sleep(calib.MPIPerMessageOverhead)
	r.BytesSent += data.Size()
	r.MsgsSent++
	if to == r.id {
		r.p.Sleep(sim.Duration(float64(data.Size()) / float64(calib.MemcpyBandwidth) * 1e9))
		r.mailbox.TrySend(inMsg{from: r.id, tag: tag, data: data})
		return
	}
	c := r.conns[to]
	if c == nil {
		if r.w.ftMode {
			r.sendFT(to, ib.Message{Meta: wireHdr{From: r.id, Tag: tag}, MetaSize: wireHdrSize, Data: data})
			return
		}
		panic(fmt.Sprintf("mpi: rank %d has no connection to %d", r.id, to))
	}
	m := ib.Message{Meta: wireHdr{From: r.id, Tag: tag}, MetaSize: wireHdrSize, Data: data}
	r.beginOp()
	err := r.trySend(c, m)
	r.endOp()
	if err != nil {
		if r.w.ftMode {
			r.sendFT(to, m)
			return
		}
		panic(fmt.Sprintf("mpi: rank %d send to %d: %v", r.id, to, err))
	}
}

// trySend pushes one message down a connection (eager or rendezvous). In
// fault-tolerant mode even eager messages go out synchronously: PostSend
// returns "once posted", so a message in flight when a link breaks would be
// lost without the sender ever learning — and a lost message between two
// surviving ranks wedges the receiver forever (restarts here are
// continuations, never rewinds). The synchronous path rechecks the
// connection after the wire transfer and hands the error back, turning
// every loss into a retriable failure on the sender's own process.
func (r *Rank) trySend(c *conn, m ib.Message) error {
	if err := c.ensure(); err != nil {
		return err
	}
	if !r.w.ftMode && m.Data.Size() <= r.w.cfg.EagerThreshold {
		return c.qp.PostSend(m)
	}
	return c.qp.Send(r.p, m)
}

// ftRetryDelay paces fault-tolerant send retries: deterministic, coarse
// enough that a recovery suspension lands within a few attempts.
const ftRetryDelay = 5 * 1e6 // 5ms between send retries

// sendFT is the fault-tolerant send path: the first transmission of m
// failed (broken QP, downed adapter, missing connection). Retry with a
// deterministic delay, rebuilding the rank-pair connection when both
// adapters are up. A pending suspension is honoured between attempts — the
// recovery that fixes the fabric runs while this rank is parked, and the
// message goes out on the rebuilt connections afterwards (at-least-once
// across a recovery). The loop never gives up while the peer is alive:
// dropping a message between two surviving ranks would block the receiver
// forever, since restarted ranks continue rather than rewind. The message
// is abandoned (and counted) only when the peer rank has finished — its
// receives have all completed, so the payload can no longer matter. A
// permanently broken fabric always comes with either a recovery suspension
// (which parks this loop) or a lost job (whose frozen suspension parks it
// for good), so the retry loop cannot spin unboundedly.
func (r *Rank) sendFT(to int, m ib.Message) {
	for {
		if r.suspendReq {
			r.doSuspend()
			continue
		}
		if r.w.ranks[to].finished {
			r.w.ftDropped++
			r.p.Trace("mpi.ft", fmt.Sprintf("rank %d: message to finished rank %d dropped", r.id, to))
			return
		}
		r.p.Sleep(ftRetryDelay)
		r.reconnectFT(to)
		c := r.conns[to]
		if c == nil {
			continue
		}
		r.beginOp()
		err := r.trySend(c, m)
		r.endOp()
		if err == nil {
			return
		}
	}
}

// reconnectFT rebuilds the connection to peer `to` if it is broken and both
// ends can carry it. The pair key serializes rebuilds so the two ranks of a
// pair (or a send retry racing a suspension rebuild) never double-connect.
func (r *Rank) reconnectFT(to int) {
	peer := r.w.ranks[to]
	if peer.finished {
		return
	}
	if c := r.conns[to]; c != nil && !c.brokenNow() {
		return
	}
	if !r.w.hcaUp(r.node) || !r.w.hcaUp(peer.node) {
		return
	}
	key := [2]int{r.id, to}
	if to < r.id {
		key = [2]int{to, r.id}
	}
	if r.w.rebuilding[key] {
		return // the peer is rebuilding this pair; retry next attempt
	}
	r.w.rebuilding[key] = true
	for _, side := range [2]*Rank{r, peer} {
		other := peer.id
		if side == peer {
			other = r.id
		}
		if old := side.conns[other]; old != nil {
			old.destroy()
			side.conns[other] = nil
		}
	}
	lo, hi := r, peer
	if hi.id < lo.id {
		lo, hi = hi, lo
	}
	r.w.connectPair(r.p, lo, hi)
	delete(r.w.rebuilding, key)
}

func match(m inMsg, from, tag int) bool {
	return m.ctl == ctlNone &&
		(from == AnySource || m.from == from) &&
		(tag == AnyTag || m.tag == tag)
}

// Recv blocks until a message matching (from, tag) arrives — wildcards
// AnySource/AnyTag — and returns its payload and actual source. A pending
// suspension is serviced transparently while waiting.
func (r *Rank) Recv(from, tag int) (payload.Buffer, int) {
	r.poll()
	for i, m := range r.unexp {
		if match(m, from, tag) {
			r.unexp = append(r.unexp[:i], r.unexp[i+1:]...)
			return m.data, m.from
		}
	}
	for {
		m, ok := r.mailbox.Recv(r.p)
		if !ok {
			panic(fmt.Sprintf("mpi: rank %d mailbox closed", r.id))
		}
		if m.ctl == ctlSuspend {
			if r.suspendReq {
				r.doSuspend()
			}
			continue
		}
		if match(m, from, tag) {
			r.p.Sleep(calib.MPIPerMessageOverhead)
			return m.data, m.from
		}
		r.unexp = append(r.unexp, m)
	}
}

// Sendrecv performs a simultaneous send and receive (the deadlock-free
// neighbour exchange NPB kernels rely on).
func (r *Rank) Sendrecv(to, sendTag int, n int64, from, recvTag int) payload.Buffer {
	r.poll()
	r.sendSeq++
	data := payload.Synth(uint64(r.id)<<40^uint64(sendTag)<<20^r.sendSeq, 0, n)
	return r.SendrecvData(to, sendTag, data, from, recvTag)
}

// SendrecvData is Sendrecv with an explicit outgoing payload.
func (r *Rank) SendrecvData(to, sendTag int, data payload.Buffer, from, recvTag int) payload.Buffer {
	r.poll()
	if r.w.ftMode {
		// Inline send-then-receive: ib sends never block on the receiver
		// (delivery is into an unbounded mailbox), so the exchange cannot
		// deadlock — and the retry/suspension handling in SendData must run
		// on the rank's own process, not a helper child.
		r.SendData(to, sendTag, data)
		got, _ := r.Recv(from, recvTag)
		return got
	}
	sent := sim.NewEvent(r.w.E)
	r.beginOp()
	r.p.SpawnChild(fmt.Sprintf("mpi.sendrecv.%d", r.id), func(sp *sim.Proc) {
		defer r.endOp()
		defer sent.Fire()
		sp.Sleep(calib.MPIPerMessageOverhead)
		r.BytesSent += data.Size()
		r.MsgsSent++
		if to == r.id {
			r.mailbox.TrySend(inMsg{from: r.id, tag: sendTag, data: data})
			return
		}
		c := r.conns[to]
		if c == nil {
			panic(fmt.Sprintf("mpi: rank %d has no connection to %d", r.id, to))
		}
		m := ib.Message{Meta: wireHdr{From: r.id, Tag: sendTag}, MetaSize: wireHdrSize, Data: data}
		err := c.ensure()
		if err == nil {
			if data.Size() <= r.w.cfg.EagerThreshold {
				err = c.qp.PostSend(m)
			} else {
				err = c.qp.Send(sp, m)
			}
		}
		if err != nil {
			panic(fmt.Sprintf("mpi: rank %d sendrecv to %d: %v", r.id, to, err))
		}
	})
	got, _ := r.Recv(from, recvTag)
	sent.Wait(r.p)
	return got
}

// Compute advances the rank by d of application computation, polling for
// suspension requests at slice granularity so a migration trigger stalls the
// job within milliseconds, not a full compute phase.
func (r *Rank) Compute(d sim.Duration) {
	r.ComputeTime += d
	slice := r.w.cfg.ComputeSlice
	for d > 0 {
		r.poll()
		s := slice
		if s > d {
			s = d
		}
		r.p.Sleep(s)
		d -= s
	}
	r.poll()
}

// TouchMemory dirties the rank's writable address space, so successive
// checkpoints capture genuinely different content (gen is typically the
// iteration number). No simulated time is charged; the work is part of the
// surrounding Compute.
func (r *Rank) TouchMemory(gen uint64) {
	if r.OS == nil {
		return
	}
	for si, s := range r.OS.Segments {
		if s.Name == "text" {
			continue
		}
		s.Region.Write(0, payload.Synth(uint64(r.id)<<32^gen<<8^uint64(si), 0, s.Region.Size()))
	}
}
