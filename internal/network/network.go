// Package network models the cluster fabric: per-node full-duplex links with
// serial FIFO message service, per-message overhead, and TCP/RDMA transport
// profiles.
//
// The model captures the three properties the paper's analysis rests on:
//
//   - The communication stack is FIFO: once a message enters a NIC transmit
//     queue it cannot be preempted, so a large tensor blocks higher-priority
//     tensors behind it (§2.2).
//   - Every message pays a fixed partition overhead θ (~300 µs on the
//     paper's testbed) regardless of size (§4.1), unless it is pipelined
//     back-to-back behind a previous message, in which case the stack
//     amortizes most of the per-message cost — this is what credit-based
//     preemption exploits (§4.2).
//   - Links are duplex: uplink and downlink carry traffic independently,
//     which is why partitioning overlaps push and pull in PS mode (§2.2).
package network

import (
	"fmt"
	"math"
	"strings"

	"bytescheduler/internal/recycle"
	"bytescheduler/internal/sim"
	"bytescheduler/internal/stats"
	"bytescheduler/internal/trace"
)

// Profile describes a transport stack (TCP or RDMA).
type Profile struct {
	// Name identifies the transport, e.g. "TCP".
	Name string
	// MsgOverhead is the fixed per-message cost θ paid when a message
	// starts on an idle link: serialization, syscall/DMA setup, ACK
	// round-trip amortization.
	MsgOverhead float64
	// PipelinedOverhead replaces MsgOverhead when the message starts
	// back-to-back behind a previous one (the transmit queue never
	// drained), modeling how a busy stack amortizes per-message costs.
	PipelinedOverhead float64
	// AckDelay is the extra time after delivery until the sender learns of
	// completion (credit return for the scheduler).
	AckDelay float64
	// Efficiency is the achievable fraction of nominal link bandwidth.
	Efficiency float64
	// CollectiveLaunch is the fixed cost of launching one all-reduce
	// operation (kernel launch + coordination).
	CollectiveLaunch float64
	// HopLatency is the per-hop synchronization latency of ring
	// collectives; one all-reduce over M nodes pays ~2(M-1) hops.
	HopLatency float64
	// MaxGoodputGbps caps point-to-point application goodput regardless
	// of link speed: RPC-style stacks (ps-lite) bottleneck on
	// serialization, memory copies and single-connection processing long
	// before a 100 Gbps NIC does. This is why the paper still finds large
	// PS headroom at 100 Gbps.
	MaxGoodputGbps float64
	// CollectiveMaxGbps caps ring-collective bus bandwidth; NCCL-class
	// implementations run far closer to line rate than RPC stacks.
	CollectiveMaxGbps float64
}

// TCP returns the TCP/IP transport profile used in the evaluation.
func TCP() Profile {
	return Profile{
		Name:              "TCP",
		MsgOverhead:       300e-6,
		PipelinedOverhead: 60e-6,
		AckDelay:          150e-6,
		Efficiency:        0.88,
		CollectiveLaunch:  90e-6,
		HopLatency:        25e-6,
		MaxGoodputGbps:    22,
		CollectiveMaxGbps: 25,
	}
}

// RDMA returns the RDMA transport profile: a leaner stack with much lower
// per-message overhead, which is why the paper observes larger scheduling
// gains (small partitions are cheaper) with RDMA.
func RDMA() Profile {
	return Profile{
		Name:              "RDMA",
		MsgOverhead:       60e-6,
		PipelinedOverhead: 8e-6,
		AckDelay:          15e-6,
		Efficiency:        0.96,
		CollectiveLaunch:  35e-6,
		HopLatency:        4e-6,
		// ps-lite-style RPC over RDMA reaches ~30 Gbps application
		// goodput on 100 Gbps NICs (serialization + copies); NCCL-class
		// collectives without NVLink are PCIe-bound near ~55 Gbps bus
		// bandwidth.
		MaxGoodputGbps:    30,
		CollectiveMaxGbps: 55,
	}
}

// ProfileByName returns TCP() or RDMA() by case-insensitive name.
func ProfileByName(name string) (Profile, error) {
	switch {
	case strings.EqualFold(name, "tcp"):
		return TCP(), nil
	case strings.EqualFold(name, "rdma"):
		return RDMA(), nil
	}
	return Profile{}, fmt.Errorf("network: unknown transport %q", name)
}

// GbpsToBytes converts a link speed in Gbps to bytes per second.
func GbpsToBytes(gbps float64) float64 { return gbps * 1e9 / 8 }

// link is one direction of a node's NIC: a serial, non-preemptible message
// server.
type link struct {
	busy bool
	// lastEnd is when the link last finished serving a message; a message
	// starting exactly at lastEnd is pipelined.
	lastEnd  float64
	served   uint64
	busyTime float64
}

// fifo is one source uplink's NIC transmit queue: the transfers sent from it
// and not yet started, in send order, from index head on.
type fifo struct {
	q    []*Transfer
	head int
}

func (w *fifo) push(t *Transfer) {
	if w.head > 0 && len(w.q) == cap(w.q) && 2*w.head >= len(w.q) {
		// Compact in place rather than let append grow past a dead prefix.
		n := copy(w.q, w.q[w.head:])
		clear(w.q[n:])
		w.q, w.head = w.q[:n], 0
	}
	w.q = append(w.q, t)
}

func (w *fifo) pop() {
	w.q[w.head] = nil // a started transfer must not stay reachable
	if w.head++; w.head == len(w.q) {
		w.q, w.head = w.q[:0], 0
	}
}

// Sink receives a transfer's progress as method calls on a record the
// sender already keeps, so no closure is built per message. One sink can
// serve many transfers; none may be kept past Acked.
type Sink interface {
	// Delivered: the payload has fully arrived at Dst.
	Delivered(t *Transfer)
	// Acked: AckDelay after delivery, the sender-side completion
	// notification used for credit return.
	Acked(t *Transfer)
}

// Transfer is one message in flight between two fabric nodes.
type Transfer struct {
	// Src and Dst are fabric node indices.
	Src, Dst int
	// Bytes is the message payload size.
	Bytes int64
	// Prio is recorded for diagnostics only; the fabric itself is strictly
	// FIFO — priority is the scheduler's job, above the fabric.
	Prio int
	// Sink, if non-nil, is told of delivery and, AckDelay later, of the ack.
	// Tag is the sender's own label (e.g. which stripe of a partition).
	Sink Sink
	Tag  int

	fab    *Fabric
	seq    uint64 // send order across the fabric
	start  float64
	pooled bool // from Fabric.NewTransfer: the fabric takes it back
}

// The steps of a transfer that are events: Transfer is its own sim.Handler.
const (
	stepDelivered = iota
	stepAcked
)

// Fabric is a set of nodes connected by a non-blocking switch; each node has
// an uplink and a downlink of equal nominal bandwidth.
type Fabric struct {
	eng       *sim.Engine
	prof      Profile
	bytesPerS float64
	up, down  []link
	// waiting is each source uplink's transmit queue; heads is dispatch's
	// scratch, one slot per source, so appending to it never reallocates.
	waiting []fifo
	heads   []*Transfer
	sent    uint64
	// free holds the pooled transfers whose last callback has returned.
	free      recycle.List[*Transfer]
	delivered uint64
	rec       *trace.Recorder
	// faults, when non-nil, injects deterministic degradation (drops,
	// outages, latency spikes); see InjectFaults. faultRNG is its
	// generator, kept across Reset and reseeded by the next InjectFaults.
	faults   *faultState
	faultRNG *stats.RNG
}

// SetTrace records every transfer as a span on the source node's uplink
// lane (nil disables).
func (f *Fabric) SetTrace(rec *trace.Recorder) { f.rec = rec }

// NewFabric creates a fabric of n nodes with the given per-direction link
// speed and transport profile.
func NewFabric(eng *sim.Engine, n int, gbps float64, prof Profile) *Fabric {
	if n <= 0 {
		panic("network: fabric needs at least one node")
	}
	f := &Fabric{
		eng:     eng,
		up:      make([]link, n),
		down:    make([]link, n),
		waiting: make([]fifo, n),
		heads:   make([]*Transfer, 0, n),
	}
	f.Reset(gbps, prof)
	return f
}

// Reset returns the fabric to the state NewFabric leaves it in, at a new
// link speed and profile: idle links, empty transmit queues, zeroed
// counters, no trace and no fault injection. Queues and the transfer free
// list keep their capacity; a transfer still in flight is dropped, so the
// engine must have been reset too.
func (f *Fabric) Reset(gbps float64, prof Profile) {
	if gbps <= 0 {
		panic("network: non-positive bandwidth")
	}
	bps := GbpsToBytes(gbps) * prof.Efficiency
	if cap := GbpsToBytes(prof.MaxGoodputGbps); prof.MaxGoodputGbps > 0 && bps > cap {
		bps = cap
	}
	f.prof, f.bytesPerS = prof, bps
	clear(f.up)
	clear(f.down)
	for i := range f.waiting {
		w := &f.waiting[i]
		clear(w.q)
		w.q, w.head = w.q[:0], 0
	}
	f.sent, f.delivered = 0, 0
	f.rec, f.faults = nil, nil
}

// Nodes returns the number of fabric nodes.
func (f *Fabric) Nodes() int { return len(f.up) }

// Profile returns the transport profile in use.
func (f *Fabric) Profile() Profile { return f.prof }

// transferTime returns the idle-link service time for a message of the given
// size: θ + size/effective-bandwidth.
func (f *Fabric) transferTime(bytes int64) float64 {
	return f.prof.MsgOverhead + float64(bytes)/f.bytesPerS
}

// Delivered returns the number of messages delivered so far.
func (f *Fabric) Delivered() uint64 { return f.delivered }

// Utilization returns the busy fractions of a node's uplink and downlink
// over the simulation so far.
func (f *Fabric) Utilization(node int) (up, down float64) {
	now := f.eng.Now()
	if now <= 0 {
		return 0, 0
	}
	return f.up[node].busyTime / now, f.down[node].busyTime / now
}

// NewTransfer returns a zeroed transfer from the fabric's free list to fill
// in and Send; the fabric takes it back once its last callback has returned.
func (f *Fabric) NewTransfer() *Transfer {
	t := recycle.Take(&f.free)
	t.pooled = true
	return t
}

// release recycles a finished transfer unless the caller allocated it.
func (f *Fabric) release(t *Transfer) {
	if t.pooled {
		*t = Transfer{}
		f.free.Put(t)
	}
}

// Send enqueues a transfer. Messages from the same source node are served in
// strict FIFO order (NIC transmit queue); messages from different sources
// destined to a busy receiver wait without blocking one another.
func (f *Fabric) Send(t *Transfer) {
	if t.Src < 0 || t.Src >= len(f.up) || t.Dst < 0 || t.Dst >= len(f.up) {
		panic(fmt.Sprintf("network: transfer endpoints out of range: %d->%d", t.Src, t.Dst))
	}
	if t.Src == t.Dst {
		panic("network: loopback transfer; model local work as latency, not traffic")
	}
	if t.Bytes < 0 {
		panic("network: negative transfer size")
	}
	t.fab, t.seq = f, f.sent
	f.sent++
	f.waiting[t.Src].push(t)
	f.dispatch()
}

// dispatch starts every eligible pending transfer. Only the head of a
// source's queue can start — the NIC queue is FIFO and has head-of-line
// blocking — and only while its source uplink and destination downlink are
// idle and neither endpoint is in an outage. Heads are tried oldest send
// first, so of two heads bound for one idle downlink the older one wins.
func (f *Fabric) dispatch() {
	heads := f.heads
	for src := range f.waiting {
		if w := &f.waiting[src]; w.head < len(w.q) && !f.up[src].busy {
			t, i := w.q[w.head], len(heads)
			heads = append(heads, t)
			for ; i > 0 && heads[i-1].seq > t.seq; i-- { // insertion by send order
				heads[i] = heads[i-1]
			}
			heads[i] = t
		}
	}
	for _, t := range heads {
		if !f.down[t.Dst].busy && !f.outageBlocked(t) {
			f.waiting[t.Src].pop()
			f.start(t)
		}
	}
	clear(heads)
}

func (f *Fabric) start(t *Transfer) {
	now := f.eng.Now()
	src, dst := &f.up[t.Src], &f.down[t.Dst]

	// Pipelining: if the uplink never drained between the previous message
	// and this one, the stack amortizes the per-message cost.
	overhead := f.prof.MsgOverhead
	if src.served > 0 && nearlyEqual(now, src.lastEnd) {
		overhead = f.prof.PipelinedOverhead
	}
	dur := overhead + float64(t.Bytes)/f.bytesPerS
	if fs := f.faults; fs != nil {
		sec, retransmits, spikes := fs.cfg.Penalty(fs.rng)
		dur += sec
		fs.stats.Retransmits += retransmits
		fs.stats.Spikes += spikes
	}
	t.start = now
	src.busy, dst.busy = true, true
	src.busyTime += dur
	dst.busyTime += dur
	f.eng.After(dur, t, stepDelivered)
}

// Fire implements sim.Handler: the message arrives, or its ack does.
func (t *Transfer) Fire(step int) {
	f := t.fab
	if step == stepAcked {
		t.Sink.Acked(t)
		f.release(t)
		return
	}
	end := f.eng.Now()
	if f.rec != nil {
		f.rec.Add(fmt.Sprintf("n%02d/up", t.Src),
			fmt.Sprintf("x%d->%d L%d", t.Src, t.Dst, t.Prio), t.start, end)
	}
	src, dst := &f.up[t.Src], &f.down[t.Dst]
	src.busy, dst.busy = false, false
	src.lastEnd, dst.lastEnd = end, end
	src.served++
	dst.served++
	f.delivered++
	if t.Sink != nil {
		t.Sink.Delivered(t)
		f.eng.After(f.prof.AckDelay, t, stepAcked)
	} else {
		f.release(t)
	}
	f.dispatch()
}

func nearlyEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
}
