// Package netar is a real, wire-level segmented ring all-reduce over TCP
// for the live scheduler: N peers arranged in a ring, each dialing its
// successor and accepting from its predecessor, reducing fp32 tensor
// partitions with the bandwidth-optimal reduce-scatter + all-gather
// schedule — the same collective the simulator's internal/allreduce models
// analytically, but over actual sockets.
//
// It exists so the library's live half (bytescheduler.Scheduler /
// core.AsyncScheduler) has an all-reduce transport to drive end to end,
// closing the gap the paper's generality claim rests on (§3, Table 1):
// the scheduler is architecture-agnostic, but all-reduce pays a
// per-operation synchronization cost — 2(M-1) sequential ring hops plus
// launch overhead — so it wants much larger partitions than PS. With this
// package that trade-off is measurable on a real transport (EXT-RING), not
// just in simulation.
//
// One collective on M peers and n values proceeds in 2(M-1) steps. The
// vector is cut into M near-equal chunks; during reduce-scatter step s,
// peer r sends chunk (r-s) mod M to its successor and accumulates chunk
// (r-s-1) mod M from its predecessor, so after M-1 steps peer r holds the
// fully reduced chunk (r+1) mod M. All-gather then circulates the reduced
// chunks the same way. Each peer moves 2(M-1)/M of the data — the
// bandwidth-optimal schedule the simulator's cost model charges. Raw fp32
// segments are never copied in user space: one is sent from the vector,
// summed with in from its read buffer, or read straight into out.
//
// Collectives are keyed by (key, iteration) and may run concurrently in any
// local order: segments go to per-(key, iter, step) slots, and a dedicated
// reader drains every inbound connection, so no step's send deadlocks on
// the ring's cycle.
//
// The frame is internal/wire's, shared with netps; this package owns the
// op codes, the slot dispatch and the schedule on top of it. Hardening, as
// in netps: per-frame write deadlines, bounded dial retry with jittered
// backoff, a step timeout (a dead peer is an error, not a hang),
// duplicate-segment drops, a bounded pending-slot table and a Close that
// fails blocked waiters, bounded by the Default* constants.
package netar

import "bytescheduler/internal/wire"

// Op is the wire operation code.
type Op uint8

const (
	// OpData carries one ring segment: the payload of (key, iter) at one
	// schedule step, either a partial sum (reduce-scatter phase) or a fully
	// reduced chunk (all-gather phase).
	OpData Op = 1
	// OpErr is a peer -> peer protocol-error notification; the payload is a
	// UTF-8 message. It lets a peer report "your segment was rejected"
	// before dropping a connection whose framing may be out of sync.
	OpErr Op = 2
	// OpReady and OpAdmit are the master Core's control frames (Control).
	OpReady Op = 3
	OpAdmit Op = 4
)

// Control is a control frame of the paper's §5 master Core on the ring,
// the fixed header alone: no key, no payload, no allocation to read. An
// OpReady reports that Task of pass Iter is ready on the sender and every
// peer its report passed; an OpAdmit is rank 0's admission of partition
// Part of Parts, the task cut at Unit bytes (0: whole), which each
// follower starts. On the wire Step is the task, Orig the unit and Seq
// the partition index and count.
type Control struct {
	Op                Op
	Iter              uint32
	Task              uint16
	Part, Parts, Unit uint32
}

func (c Control) header() wire.Header {
	return wire.Header{Op: uint8(c.Op), Iter: c.Iter, Step: c.Task, Orig: c.Unit, Seq: uint64(c.Part)<<32 | uint64(c.Parts)}
}

func control(h wire.Header) Control {
	return Control{Op: Op(h.Op), Iter: h.Iter, Task: h.Step, Unit: h.Orig, Part: uint32(h.Seq >> 32), Parts: uint32(h.Seq)}
}

// message is one framed ring segment: the shared wire header and its
// payload. Header.Op holds an Op; Seq is a per-peer monotonic frame
// counter, for tracing and duplicate diagnostics (a persistent connection
// does not replay frames the way netps retries do, so it is observability,
// not correctness); Step is the position in the 2(M-1)-step collective
// schedule; Chunk is the vector chunk index the payload covers, which the
// receiver verifies against the schedule, catching ring misconfiguration.
// buf is the recycled buffer Payload was read into; nil if built in memory
// or read into a slot's registered destination: filled, or err if broken.
type message struct {
	wire.Header
	Payload []byte
	buf     []byte
	filled  bool
	err     error
}

// chunkBound is where chunk c starts when n values are cut into m chunks
// (chunkBound(n, m, m) is n): the first n%m get one extra value, so sizes
// differ by at most one and every peer computes the same bounds.
func chunkBound(n, m, c int) int { return c*(n/m) + min(c, n%m) }

// chunk is chunk c of v cut into m chunks.
func chunk(v []float32, m, c int) []float32 {
	return v[chunkBound(len(v), m, c):chunkBound(len(v), m, c+1)]
}
