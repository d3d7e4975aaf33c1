// Package netps is a real, wire-level parameter server over TCP for the
// live scheduler: a sharded key-value store that aggregates pushed fp32
// gradient partitions across workers and serves pulls once aggregation
// completes — the same push/update/pull contract as the simulated
// substrate, but over actual sockets.
//
// It exists so the library's live half (bytescheduler.Scheduler /
// core.AsyncScheduler) has a concrete transport to drive end to end: a
// worker wraps each tensor partition as a CommTask whose Start pushes to
// and pulls from this server. The framing is deliberately minimal
// (length-prefixed binary) — the scheduler above it, not the RPC layer, is
// the point.
//
// Each client pipelines every request on one connection to its shard, and
// responses come back in whatever order the server answers them, matched
// to their calls by Seq — a pull parked on aggregation holds up nothing
// behind it. §2.2's cost model charges every transfer a per-message
// overhead θ; the connection pays it per write, not per frame, because
// whatever queued during a write goes out in the next single writev. No
// timer, threshold or envelope is involved.
//
// The transport is failure-hardened for the live path: each call carries a
// deadline, transport failures are retried under a bounded budget with
// exponential backoff and deterministic jitter, and a connection the
// server closed is replaced by a fresh dial. Servers deduplicate replayed
// pushes and pulls by the client half of the request sequence number, one
// record per (key, iter), answer application errors with OpErr instead of
// dropping the connection, and fail blocked pull waiters on Close instead
// of leaking them. Deadlines, retry budget and backoff are the Default*
// constants. See DESIGN.md, "Fault model & degradation".
//
// The frame itself — layout, limits, the one-writev write, the bounded
// read, the fp32/codec payload envelope and the retry-delay curve — is
// internal/wire's, shared with netar; this package owns the op codes and
// the request/response state machines on top of it.
package netps

import "bytescheduler/internal/wire"

// Op is the wire operation code.
type Op uint8

// The op codes of the PS protocol.
const (
	// OpPush carries a gradient partition worker -> server.
	OpPush Op = 1
	// OpPull requests the aggregated partition server -> worker; the
	// response is delayed until aggregation completes.
	OpPull Op = 2
	// OpErr is a server -> worker error response: the payload is a UTF-8
	// message. It replaces silently dropping the connection on application
	// errors, so clients can tell "request rejected" from "peer died".
	OpErr Op = 3
)

// message is one frame: the shared wire header (Step and Chunk stay zero
// here) and its payload. Header.Op holds an Op.
type message struct {
	wire.Header
	Payload []byte
}

// newMessage builds a frame; the fields beyond the common four are set on
// the result.
func newMessage(op Op, key string, iter uint32, seq uint64, payload []byte) message {
	return message{Header: wire.Header{Op: uint8(op), Iter: iter, Seq: seq, Key: key}, Payload: payload}
}
