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
// (length-prefixed binary, one request per round trip per connection) —
// the scheduler above it, not the RPC layer, is the point.
//
// The transport is failure-hardened for the live path: clients carry
// per-request read/write deadlines, bounded retry with exponential backoff
// and deterministic jitter, and redial pooled connections the server closed
// while they sat idle; servers deduplicate replayed pushes and pulls by the
// client half of the request sequence number, one record per (key, iter),
// answer application errors with OpErr instead of dropping
// the connection, and fail blocked pull waiters on Close instead of leaking
// them. Deadlines, retry budget, backoff and batching thresholds are the
// Default* constants. See DESIGN.md, "Fault model & degradation".
//
// Because §2.2's cost model charges a per-message overhead θ on every
// transfer, small scheduled partitions are wire-inefficient one request at
// a time. The OpBatch envelope coalesces many push sub-messages into one
// frame (Client.PushBatch); Batcher queues pushes and flushes on size,
// deadline, or the scheduler's flush hook (FlushAsync), so one wire round
// trip can carry a whole releasing pass. Per-sub-message sequence numbers
// stay stable across envelope retries, keeping server-side dedup exact for
// batches too.
//
// The frame itself — layout, limits, the one-writev write, the bounded
// read, the fp32/codec payload envelope and the retry-delay curve — is
// internal/wire's, shared with netar; this package owns the op codes and
// the request/response state machines on top of it.
package netps

import (
	"fmt"

	"bytescheduler/internal/wire"
)

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
	// OpBatch coalesces several push sub-requests to the same server under
	// one framed write, amortizing the per-message overhead θ the paper's
	// §2.2 cost model charges every transfer. The payload is a
	// concatenation of framed sub-messages (same wire format, recursively);
	// the response is one OpBatch frame whose payload concatenates the
	// framed sub-responses in request order. Each sub-request keeps its own
	// Seq, stable across batch retries, so server-side push deduplication
	// works per sub-message exactly as it does for singletons.
	OpBatch Op = 4
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

// encodeBatch frames sub-messages into one OpBatch payload. The buffer is
// sized exactly up front — one allocation per batch regardless of the
// sub-message count, instead of append-doubling through the envelope.
func encodeBatch(subs []message) ([]byte, error) {
	total := 0
	for _, m := range subs {
		total += wire.Size(m.Header, len(m.Payload))
	}
	if total > wire.MaxMessage {
		return nil, fmt.Errorf("netps: batch payload too large (%d bytes)", total)
	}
	buf := make([]byte, 0, total)
	for _, m := range subs {
		var err error
		if buf, err = wire.Append(buf, m.Header, m.Payload); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decodeBatch parses an OpBatch payload back into its framed sub-messages;
// their payloads alias the envelope.
func decodeBatch(payload []byte) ([]message, error) {
	var subs []message
	for len(payload) > 0 {
		var m message
		var err error
		if m.Header, m.Payload, payload, err = wire.Next(payload); err != nil {
			return nil, fmt.Errorf("netps: batch sub-message %d: %w", len(subs), err)
		}
		subs = append(subs, m)
	}
	return subs, nil
}
