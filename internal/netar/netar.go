package netar

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/recycle"
	"bytescheduler/internal/stats"
	"bytescheduler/internal/wire"
)

// Option configures a Peer.
type Option func(*Peer)

// WithSeed seeds the deterministic dial-backoff jitter (reproducible
// tests).
func WithSeed(seed int64) Option { return func(p *Peer) { p.rng = stats.NewRNG(seed) } }

// WithMetrics instruments the peer against the given registry: per-op
// latency histogram (netar_op_seconds), op/step/byte counters, segment
// dedup and overflow-drop counters, step-timeout and remote-error
// counters, and an in-flight collective gauge.
func WithMetrics(reg *metrics.Registry) Option {
	return func(p *Peer) {
		if reg == nil {
			p.inst = peerInstruments{}
			return
		}
		p.inst = peerInstruments{
			opSeconds:    reg.Histogram("netar_op_seconds"),
			ops:          reg.Counter("netar_ops_total"),
			steps:        reg.Counter("netar_steps_total"),
			bytesSent:    reg.Counter("netar_sent_bytes_total"),
			bytesRecv:    reg.Counter("netar_recv_bytes_total"),
			dups:         reg.Counter("netar_dup_segments_total"),
			drops:        reg.Counter("netar_dropped_segments_total"),
			stepTimeouts: reg.Counter("netar_step_timeouts_total"),
			remoteErrors: reg.Counter("netar_remote_errors_total"),
			dialRetries:  reg.Counter("netar_dial_retries_total"),
			inflight:     reg.Gauge("netar_inflight_ops"),
		}
	}
}

// WithCodec compresses every outbound ring segment through the given wire
// codec; inbound segments decode by the codec id on the frame, so mixed
// rings interoperate but every hop of a homogeneous ring moves compressed
// bytes. Note that lossy codecs re-quantize at every hop — on an M-peer
// ring a value crosses up to 2(M-1) encodes, so the error compounds with
// ring size (unlike netps, which encodes once per direction). The default
// is the identity (raw fp32) codec.
func WithCodec(cd compress.Codec) Option { return func(p *Peer) { p.codec = cd } }

// peerInstruments are the peer's resolved metric handles; all nil (and
// therefore no-ops) unless WithMetrics attached a registry.
type peerInstruments struct {
	opSeconds    *metrics.Histogram
	ops          *metrics.Counter
	steps        *metrics.Counter
	bytesSent    *metrics.Counter
	bytesRecv    *metrics.Counter
	dups         *metrics.Counter
	drops        *metrics.Counter
	stepTimeouts *metrics.Counter
	remoteErrors *metrics.Counter
	dialRetries  *metrics.Counter
	inflight     *metrics.Gauge
}

// slotKey addresses one expected ring segment: the payload of (key, iter)
// at one position in the 2(M-1)-step schedule.
type slotKey struct {
	key  string
	iter uint32
	step uint16
}

// Peer is one rank of a live segmented ring all-reduce. It listens for its
// predecessor, dials its successor, and runs any number of concurrent
// keyed collectives over those two persistent connections.
//
// The contract mirrors the simulator's collective: every peer must call
// AllReduceInto (or AllReduce) with the same (key, iter) and the same
// vector length, exactly once per collective. Distinct (key, iter)
// collectives may be issued concurrently and in any per-peer order —
// segments are dispatched to per-(key, iter, step) slots, not assumed to
// arrive in lockstep.
type Peer struct {
	rank int
	size int

	// stepTimeout (DefaultStepTimeout; 0 waits forever) and maxPending
	// (DefaultMaxPending) are fields so tests can tighten them.
	stepTimeout time.Duration
	maxPending  int
	codec       compress.Codec
	inst        peerInstruments

	seq atomic.Uint64

	// sendMu serializes frame writes to the successor so concurrent
	// collectives never interleave partial frames; monitorLoop reads the
	// same connection without it.
	sendMu sync.Mutex
	succ   *wire.Conn
	// encBuf is the codec staging buffer for outbound segments, reused
	// under sendMu so steady-state sends do not allocate.
	encBuf []byte

	// mu guards, besides the slot table, the peer's recycled inbound segment
	// buffers and reduce-scatter scratch.
	mu       sync.Mutex
	payloads recycle.List[[]byte]
	scratch  recycle.List[[]float32]
	rng      *stats.RNG
	ln       net.Listener
	// slots parks one segment (or one waiter) per schedule position, in a
	// channel of capacity 1 so the predecessor's reader can always deposit
	// and move on — the deadlock-avoidance invariant of the ring.
	slots     map[slotKey]chan message
	conns     map[net.Conn]struct{}
	remoteErr error
	closed    bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewPeer creates rank r of an M-peer ring. It does not touch the network
// until Listen and Dial are called.
func NewPeer(rank, size int, opts ...Option) (*Peer, error) {
	if size < 1 {
		return nil, fmt.Errorf("netar: ring size %d < 1", size)
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("netar: rank %d outside ring of %d", rank, size)
	}
	p := &Peer{
		rank:        rank,
		size:        size,
		stepTimeout: DefaultStepTimeout,
		maxPending:  DefaultMaxPending,
		slots:       make(map[slotKey]chan message),
		conns:       make(map[net.Conn]struct{}),
		done:        make(chan struct{}),
	}
	for _, o := range opts {
		o(p)
	}
	if p.rng == nil {
		// Deterministic per-rank default so peer dial storms decorrelate
		// even without explicit seeding.
		p.rng = stats.NewRNG(int64(rank + 1))
	}
	return p, nil
}

// Rank returns the peer's ring position.
func (p *Peer) Rank() int { return p.rank }

// Size returns the ring size M.
func (p *Peer) Size() int { return p.size }

// Listen binds the peer's inbound endpoint (the one its predecessor
// dials). Use addr "127.0.0.1:0" and Addr() to get the bound address.
func (p *Peer) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return fmt.Errorf("netar: peer closed")
	}
	if p.ln != nil {
		p.mu.Unlock()
		ln.Close()
		return fmt.Errorf("netar: already listening")
	}
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address, or "" before Listen.
func (p *Peer) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// Dial connects to the ring successor, retrying with exponential backoff
// and deterministic jitter — ring bring-up is inherently racy, every peer
// dials while its successor is still binding. It also starts the OpErr
// monitor on the outbound connection, so a successor that rejects our
// segments surfaces as an error on subsequent sends instead of a silent
// desync.
func (p *Peer) Dial(succAddr string) error {
	var conn net.Conn
	var err error
	for attempt := 0; ; attempt++ {
		if p.isClosed() {
			return fmt.Errorf("netar: peer closed")
		}
		if conn, err = net.DialTimeout("tcp", succAddr, DefaultTimeout); err == nil {
			break
		}
		if attempt >= DefaultDialRetries {
			return fmt.Errorf("netar: dial successor %s: %w", succAddr, err)
		}
		p.inst.dialRetries.Inc()
		p.backoff(attempt)
	}
	p.sendMu.Lock()
	if p.succ != nil {
		p.sendMu.Unlock()
		conn.Close()
		return fmt.Errorf("netar: already dialed")
	}
	p.succ = wire.NewConn(conn)
	p.sendMu.Unlock()
	if p.isClosed() {
		conn.Close()
		return fmt.Errorf("netar: peer closed")
	}
	p.wg.Add(1)
	go p.monitorLoop(p.succ)
	return nil
}

// backoff sleeps the exponential, jittered delay for the given attempt.
func (p *Peer) backoff(attempt int) {
	p.mu.Lock()
	jitter := p.rng.Jitter(dialDelay.Jitter)
	p.mu.Unlock()
	select {
	case <-time.After(dialDelay.Delay(attempt, jitter)):
	case <-p.done:
	}
}

func (p *Peer) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// acceptLoop accepts inbound connections (the predecessor, plus any
// reconnects) and spawns a dedicated reader per connection.
func (p *Peer) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.readLoop(conn)
	}
}

// readLoop drains one inbound connection, dispatching segments to their
// (key, iter, step) slots. A dedicated reader per connection is the
// deadlock-avoidance invariant: a step's send can never block forever on
// the ring's cyclic dependency, because the successor's reader always
// consumes.
func (p *Peer) readLoop(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		delete(p.conns, conn)
		p.mu.Unlock()
		conn.Close()
	}()
	c := wire.NewConn(conn)
	for {
		var m message
		var err error
		if m.Header, m.Payload, err = c.ReadFrame(); err != nil {
			return
		}
		switch Op(m.Op) {
		case OpData:
			if !p.deliver(c, m) {
				// Pending table full: tell the predecessor its segment was
				// rejected, then drop the connection — its framing is no
				// longer trusted to stay in sync with our slot state.
				p.inst.drops.Inc()
				p.notifyErr(c, wire.Header{Op: uint8(OpErr), Iter: m.Iter, Key: m.Key},
					fmt.Sprintf("netar: rank %d pending table full (%d slots)", p.rank, p.maxPending))
				return
			}
		default:
			// Unknown op: the stream framing may be out of sync; report and
			// drop the connection rather than misparse everything after it.
			p.notifyErr(c, wire.Header{Op: uint8(OpErr)},
				fmt.Sprintf("netar: rank %d unknown op %d", p.rank, m.Op))
			return
		}
	}
}

// notifyErr best-effort writes an OpErr frame back to the predecessor on
// the inbound connection (the only traffic that flows "backwards"); the
// caller drops the connection right after, so failures are ignored.
func (p *Peer) notifyErr(c *wire.Conn, h wire.Header, text string) {
	c.SetWriteDeadline(time.Now().Add(DefaultTimeout))
	_ = c.WriteFrame(h, []byte(text))
}

// monitorLoop drains the outbound connection for OpErr notifications from
// the successor (the only traffic that flows "backwards" on the ring).
func (p *Peer) monitorLoop(c *wire.Conn) {
	defer p.wg.Done()
	for {
		h, payload, err := c.ReadFrame()
		if err != nil {
			return
		}
		if Op(h.Op) == OpErr {
			p.inst.remoteErrors.Inc()
			p.mu.Lock()
			if p.remoteErr == nil {
				p.remoteErr = fmt.Errorf("netar: successor rejected segment: %s", string(payload))
			}
			p.mu.Unlock()
		}
	}
}

// deliver parks a segment read from c in its slot (creating the slot if the
// local collective has not reached that step yet), taking c's read buffer
// with it to whoever consumes it; c reads on into a recycled one. It
// reports false when the bounded pending table is full; duplicate segments
// for an already-filled slot are counted and dropped — the Seq-dedup
// analogue for a persistent-connection transport.
func (p *Peer) deliver(c *wire.Conn, m message) bool {
	k := slotKey{key: m.Key, iter: m.Iter, step: m.Step}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return true
	}
	s, ok := p.slots[k]
	if !ok {
		if len(p.slots) >= p.maxPending {
			return false
		}
		s = make(chan message, 1)
		p.slots[k] = s
	}
	m.buf = c.Take(p.payloads.Get())
	select {
	case s <- m:
	default:
		p.inst.dups.Inc()
		p.payloads.Put(m.buf)
	}
	return true
}

// waiterSlot returns the slot for k, creating it if the segment has not
// arrived yet. Waiter-created slots are exempt from the maxPending bound:
// waiters are bounded by the caller's own concurrency (the scheduler's
// credit), not by a remote peer.
func (p *Peer) waiterSlot(k slotKey) (chan message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("netar: peer closed")
	}
	s, ok := p.slots[k]
	if !ok {
		s = make(chan message, 1)
		p.slots[k] = s
	}
	return s, nil
}

// dropSlot removes k from the pending table and recycles buf, the buffer
// of the segment consumed there (nil if none).
func (p *Peer) dropSlot(k slotKey, buf []byte) {
	p.mu.Lock()
	delete(p.slots, k)
	if buf != nil {
		p.payloads.Put(buf)
	}
	p.mu.Unlock()
}

// sendSegment encodes one ring segment through the peer's codec, frames
// it, and writes it to the successor under the write deadline. Concurrent
// collectives serialize here so frames never interleave; the codec staging
// buffer is reused under the same lock, so steady-state sends do not
// allocate.
func (p *Peer) sendSegment(key string, iter uint32, step uint16, chunk uint16, seg []float32) error {
	h := wire.Header{Op: uint8(OpData), Iter: iter, Seq: p.seq.Add(1), Step: step, Chunk: chunk, Key: key}
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if p.succ == nil {
		return fmt.Errorf("netar: not dialed")
	}
	p.mu.Lock()
	rerr := p.remoteErr
	closed := p.closed
	p.mu.Unlock()
	if rerr != nil {
		return rerr
	}
	if closed {
		return fmt.Errorf("netar: peer closed")
	}
	// The staging buffer is safe to reuse because the write below completes
	// before sendMu is released.
	var payload []byte
	payload, h.Codec, h.Orig = wire.AppendFloats(p.encBuf[:0], p.codec, seg)
	p.encBuf = payload[:0]
	p.succ.SetWriteDeadline(time.Now().Add(DefaultTimeout))
	if err := p.succ.WriteFrame(h, payload); err != nil {
		return fmt.Errorf("netar: send step %d to successor: %w", step, err)
	}
	p.inst.steps.Inc()
	p.inst.bytesSent.Add(uint64(len(payload)))
	return nil
}

// recvSegment blocks until the predecessor's segment for (key, iter, step)
// arrives, the step timeout fires, or the peer closes, and decodes it into
// dst — or, given a scratch of len(dst), adds it into dst: a raw fp32
// segment straight from its read buffer, a codec's through the scratch. It
// verifies the received chunk index and length (len(dst) values) against
// the schedule, catching ring misconfiguration (wrong rank order,
// mismatched sizes) at the first step instead of as silently wrong sums; a
// segment of the wrong length is that error and never written past dst.
func (p *Peer) recvSegment(key string, iter uint32, step uint16, wantChunk uint16, dst, scratch []float32) error {
	k := slotKey{key: key, iter: iter, step: step}
	s, err := p.waiterSlot(k)
	if err != nil {
		return err
	}
	var timeout <-chan time.Time
	if p.stepTimeout > 0 {
		t := time.NewTimer(p.stepTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case m := <-s:
		defer p.dropSlot(k, m.buf)
		if m.Chunk != wantChunk {
			return fmt.Errorf("netar: step %d of %s#%d: got chunk %d, schedule expects %d (ring misconfigured?)",
				step, key, iter, m.Chunk, wantChunk)
		}
		if scratch != nil && m.Codec == 0 && len(m.Payload) == 4*len(dst) {
			_ = compress.AddRaw(dst, m.Payload) // length checked
		} else {
			into := dst
			if scratch != nil {
				into = scratch
			}
			// Capacity clipped to len(dst): a longer segment reallocates
			// instead of overrunning into the neighbouring chunk.
			vals, err := wire.Floats(into[:0:len(dst)], m.Header, m.Payload)
			if err != nil {
				return fmt.Errorf("netar: step %d of %s#%d: %w", step, key, iter, err)
			}
			if len(vals) != len(dst) {
				return fmt.Errorf("netar: step %d of %s#%d: chunk %d has %d values, want %d (vector length mismatch?)",
					step, key, iter, m.Chunk, len(vals), len(dst))
			}
			if scratch != nil {
				for i, v := range vals {
					dst[i] += v
				}
			}
		}
		p.inst.bytesRecv.Add(uint64(len(m.Payload)))
		return nil
	case <-p.done:
		p.dropSlot(k, nil)
		return fmt.Errorf("netar: peer closed while waiting for step %d of %s#%d", step, key, iter)
	case <-timeout:
		p.dropSlot(k, nil)
		p.inst.stepTimeouts.Inc()
		return fmt.Errorf("netar: timeout after %v waiting for step %d of %s#%d (dead peer?)",
			p.stepTimeout, step, key, iter)
	}
}

// mod is the positive remainder of a modulo m.
func mod(a, m int) int { return ((a % m) + m) % m }

// AllReduce is AllReduceInto into a fresh vector; a caller that owns the
// output buffer calls AllReduceInto and allocates nothing.
func (p *Peer) AllReduce(key string, iter uint32, data []float32) ([]float32, error) {
	out := make([]float32, len(data))
	return out, p.AllReduceInto(key, iter, data, out)
}

// AllReduceInto runs one segmented ring collective: the element-wise sum
// of every peer's in vector, written to out (same length, may alias in).
// All peers must call it with the same (key, iter) and the same vector
// length, exactly once per collective; distinct (key, iter) collectives
// may run concurrently. Because a collective blocks until every peer
// participates, peers that issue collectives strictly sequentially must
// agree on the order; issuing them from concurrent goroutines (as the core
// scheduler does, one per partition) is order-free — the keyed slots pair
// up segments however they interleave.
//
// The schedule is the bandwidth-optimal reduce-scatter + all-gather, run
// in out: in reduce-scatter step s, rank r sends chunk (r-s) mod M and
// accumulates chunk (r-s-1) mod M, so after M-1 steps rank r holds the
// fully reduced chunk (r+1) mod M; all-gather then circulates them.
func (p *Peer) AllReduceInto(key string, iter uint32, in, out []float32) error {
	if len(out) != len(in) {
		return fmt.Errorf("netar: %s#%d: output has %d values, input %d", key, iter, len(out), len(in))
	}
	start := time.Now()
	p.inst.ops.Inc()
	p.inst.inflight.Inc()
	err := p.allReduce(key, iter, in, out)
	p.inst.inflight.Dec()
	p.inst.opSeconds.Observe(time.Since(start).Seconds())
	return err
}

func (p *Peer) allReduce(key string, iter uint32, in, out []float32) error {
	if len(in) > 0 && &in[0] != &out[0] {
		copy(out, in)
	}
	if p.size == 1 {
		return nil
	}
	if p.isClosed() {
		return fmt.Errorf("netar: peer closed")
	}
	m := p.size
	// Reduce-scatter: after step s every rank has accumulated one more
	// partial sum; after M-1 steps rank r owns the fully reduced chunk
	// (r+1) mod M. Incoming partial sums land in one recycled scratch
	// (chunk 0 is never shorter than any other).
	p.mu.Lock()
	scratch := slices.Grow(p.scratch.Get()[:0], chunkBound(len(out), m, 1))
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.scratch.Put(scratch)
		p.mu.Unlock()
	}()
	for s := 0; s < m-1; s++ {
		sendChunk := mod(p.rank-s, m)
		recvChunk := mod(p.rank-s-1, m)
		if err := p.sendSegment(key, iter, uint16(s), uint16(sendChunk), chunk(out, m, sendChunk)); err != nil {
			return err
		}
		dst := chunk(out, m, recvChunk)
		if err := p.recvSegment(key, iter, uint16(s), uint16(recvChunk), dst, scratch[:len(dst)]); err != nil {
			return err
		}
	}
	// All-gather: circulate the reduced chunks. At gather step s rank r
	// sends chunk (r+1-s) mod M (reduced) and receives chunk (r-s) mod M,
	// decoded in place.
	for s := 0; s < m-1; s++ {
		step := uint16(m - 1 + s)
		sendChunk := mod(p.rank+1-s, m)
		recvChunk := mod(p.rank-s, m)
		if err := p.sendSegment(key, iter, step, uint16(sendChunk), chunk(out, m, sendChunk)); err != nil {
			return err
		}
		if err := p.recvSegment(key, iter, step, uint16(recvChunk), chunk(out, m, recvChunk), nil); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the peer down: the listener stops accepting, all
// connections close, reader goroutines drain, and every collective blocked
// in recvSegment fails with a "peer closed" error instead of hanging.
// Close is idempotent.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.done)
	if p.ln != nil {
		p.ln.Close()
	}
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	p.sendMu.Lock()
	if p.succ != nil {
		p.succ.Close()
	}
	p.sendMu.Unlock()
	p.wg.Wait()
}
