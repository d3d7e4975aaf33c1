package netar

import (
	"cmp"
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

// WithMetrics instruments the peer against the given registry: the per-op
// latency histogram, the counters and the in-flight gauge below.
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

// slot is one schedule position's rendezvous, a record the peer recycles.
// The reader reads its segment into dst, the out chunk a waiter registered,
// if any (claimed meanwhile), and deposits it in seg, which never blocks.
type slot struct {
	seg     chan message
	dst     []byte
	claimed bool
}

// collective is one AllReduceInto's state, a record the peer recycles: its
// codec reduce scratch (grown by the first segment that needs it) and the
// one timer reset for each of its steps.
type collective struct {
	key     string
	iter    uint32
	scratch []float32
	timer   *time.Timer
}

// Peer is one rank of a live segmented ring all-reduce. It listens for its
// predecessor, dials its successor, and runs any number of concurrent
// keyed collectives (AllReduceInto) over those two persistent connections.
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

	// sendMu serializes frame writes to the successor (monitorLoop reads
	// it without), and guards encBuf, the codec staging buffer.
	sendMu sync.Mutex
	succ   *wire.Conn
	encBuf []byte

	// mu guards, besides the slot table, the peer's recycled inbound segment
	// buffers, slots and collective records.
	mu        sync.Mutex
	payloads  recycle.List[[]byte]
	freeSlots recycle.List[*slot]
	colls     recycle.List[*collective]
	rng       *stats.RNG
	ln        net.Listener
	slots     map[slotKey]*slot
	conns     map[net.Conn]struct{}
	ctl       func(Control, error)
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
		slots:       make(map[slotKey]*slot),
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

// Dial connects to the ring successor, retrying with jittered backoff (every
// peer dials while its successor may still be binding), and starts the
// OpErr monitor on the connection, so a successor that rejects our
// segments surfaces as an error on later sends, not a silent desync.
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

// SetControl installs fn as the control-frame handler (see Control). It
// runs on the connection's reader, once per frame in arrival order and
// once with an error when the connection ends, so it must not wait on ring
// traffic. Without a handler a control frame is a protocol error.
func (p *Peer) SetControl(fn func(Control, error)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ctl = fn
}

// SendControl writes c to the successor under the write deadline.
func (p *Peer) SendControl(c Control) error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if err := p.sendErr(); err != nil {
		return err
	}
	p.succ.SetWriteDeadline(time.Now().Add(DefaultTimeout))
	if err := p.succ.WriteFrame(c.header(), nil); err != nil {
		return fmt.Errorf("netar: send control to successor: %w", err)
	}
	return nil
}

// readLoop drains one inbound connection (its own reader: the ring's
// deadlock-avoidance invariant), reading each segment into the destination
// its slot registered (pick), within the step timeout, or into a buffer
// parked there (deliver), and handing each control frame to the handler.
// Idle reads carry no deadline.
func (p *Peer) readLoop(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		delete(p.conns, conn)
		fn := p.ctl
		p.mu.Unlock()
		conn.Close()
		if fn != nil {
			fn(Control{}, fmt.Errorf("netar: rank %d lost its predecessor", p.rank))
		}
	}()
	c := wire.NewConn(conn)
	var s *slot // the slot pick claimed for the frame being read, if any
	pick := func(h wire.Header, n int) []byte {
		p.mu.Lock()
		defer p.mu.Unlock()
		t := p.slots[slotKey{key: h.Key, iter: h.Iter, step: h.Step}]
		if Op(h.Op) != OpData || h.Codec != 0 || t == nil || t.dst == nil || len(t.dst) != n || t.claimed {
			return nil
		}
		s, t.claimed = t, true
		if p.stepTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(p.stepTimeout))
		}
		return t.dst
	}
	for {
		s = nil
		h, payload, err := c.ReadFrameInto(pick)
		m := message{Header: h, Payload: payload}
		if s != nil { // the claimant waits for this, whether the read ended or broke
			c.SetReadDeadline(time.Time{})
			m.filled, m.err = err == nil, err
			p.mu.Lock()
			s.claimed, s.dst = false, nil
			s.seg <- m
			p.mu.Unlock()
		}
		switch {
		case err != nil:
			return
		case s != nil:
		case Op(m.Op) == OpData:
			if !p.deliver(c, m) {
				// Pending table full: tell the predecessor its segment was
				// rejected, then drop the connection — its framing is no
				// longer trusted to stay in sync with our slot state.
				p.inst.drops.Inc()
				p.notifyErr(c, wire.Header{Op: uint8(OpErr), Iter: m.Iter, Key: m.Key},
					fmt.Sprintf("netar: rank %d pending table full (%d slots)", p.rank, p.maxPending))
				return
			}
		case (Op(m.Op) == OpReady || Op(m.Op) == OpAdmit) && m.Key == "" && len(m.Payload) == 0:
			p.mu.Lock()
			fn := p.ctl
			p.mu.Unlock()
			if fn == nil {
				p.notifyErr(c, wire.Header{Op: uint8(OpErr)}, fmt.Sprintf("netar: rank %d has no control handler", p.rank))
				return
			}
			fn(control(m.Header), nil)
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

// monitorLoop drains the outbound connection for the successor's OpErrs.
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
// for an already-filled (or claimed) slot are counted and dropped — the
// Seq-dedup analogue for a persistent-connection transport.
func (p *Peer) deliver(c *wire.Conn, m message) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return true
	}
	s := p.slotAt(slotKey{key: m.Key, iter: m.Iter, step: m.Step}, true)
	if s == nil {
		return false
	}
	m.buf = c.Take(p.payloads.Get())
	if s.claimed || len(s.seg) > 0 {
		p.inst.dups.Inc()
		p.payloads.Put(m.buf)
		return true
	}
	s.seg <- m
	s.dst = nil
	return true
}

// slotAt returns k's slot, made from a recycled record if need be unless
// bounded and the table is full (nil); waiters are bounded by the caller's
// own concurrency (the scheduler's credit) instead. Caller holds mu.
func (p *Peer) slotAt(k slotKey, bounded bool) *slot {
	s := p.slots[k]
	if s == nil && (!bounded || len(p.slots) < p.maxPending) {
		if s = recycle.Take(&p.freeSlots); s.seg == nil {
			s.seg = make(chan message, 1)
		}
		p.slots[k] = s
	}
	return s
}

// expect returns k's slot, made if its segment has not arrived, and then
// registers dst (nil: none) for the reader to read that segment into.
func (p *Peer) expect(k slotKey, dst []float32) (*slot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("netar: peer closed")
	}
	s := p.slotAt(k, false)
	if raw, ok := compress.RawBytes(dst); ok && dst != nil && len(s.seg) == 0 {
		s.dst = raw
	}
	return s, nil
}

// release removes k's slot, if any, once no read is claimed into it, and
// recycles it with buf (its consumed segment's, or nil) and any parked since.
func (p *Peer) release(k slotKey, buf []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.slots[k]; s != nil {
		for s.claimed || len(s.seg) > 0 {
			p.mu.Unlock()
			m := <-s.seg // a claimed read's outcome, or a segment parked since
			p.mu.Lock()
			p.payloads.Put(m.buf)
		}
		delete(p.slots, k)
		s.dst = nil
		p.freeSlots.Put(s)
	}
	if buf != nil {
		p.payloads.Put(buf)
	}
}

// sendErr reports why nothing can be written to the successor, if
// anything. The caller holds sendMu.
func (p *Peer) sendErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.remoteErr != nil:
		return p.remoteErr
	case p.closed:
		return fmt.Errorf("netar: peer closed")
	case p.succ == nil:
		return fmt.Errorf("netar: not dialed")
	}
	return nil
}

// sendSegment writes seg to the successor under the write deadline: its own
// memory under the identity codec, else encoded into encBuf. The write ends
// under sendMu, which serializes collectives, so neither is in use after.
func (p *Peer) sendSegment(key string, iter uint32, step uint16, chunk uint16, seg []float32) error {
	h := wire.Header{Op: uint8(OpData), Iter: iter, Seq: p.seq.Add(1), Step: step, Chunk: chunk, Key: key}
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if err := p.sendErr(); err != nil {
		return err
	}
	payload, raw := compress.RawBytes(seg)
	if !raw || !p.codec.IsIdentity() {
		payload, h.Codec, h.Orig = wire.AppendFloats(p.encBuf[:0], p.codec, seg)
		p.encBuf = payload[:0]
	}
	p.succ.SetWriteDeadline(time.Now().Add(DefaultTimeout))
	if err := p.succ.WriteFrame(h, payload); err != nil {
		return fmt.Errorf("netar: send step %d to successor: %w", step, err)
	}
	p.inst.steps.Inc()
	p.inst.bytesSent.Add(uint64(len(payload)))
	return nil
}

// recvSegment waits for the predecessor's segment for step of c, the step
// timeout or Close, and writes it to dst (unless the reader read it there)
// or, given base (may alias dst), base + it: a raw one read in place, a
// codec's through c's scratch. A wrong chunk index or length (ring
// misconfiguration) is an error, never written past dst. A timeout or Close
// after the reader claimed dst waits for that read to end, which the read
// deadline bounds by the step timeout.
func (p *Peer) recvSegment(c *collective, step, wantChunk uint16, dst, base []float32) (err error) {
	k := slotKey{key: c.key, iter: c.iter, step: step}
	s, err := p.expect(k, nil)
	if err != nil {
		return err
	}
	var m message
	defer func() {
		p.release(k, m.buf)
		p.inst.bytesRecv.Add(uint64(len(m.Payload)))
		if err != nil {
			err = fmt.Errorf("netar: step %d of %s#%d: %w", step, c.key, c.iter, err)
		}
	}()
	var timeout <-chan time.Time
	if p.stepTimeout > 0 {
		if c.timer == nil {
			c.timer = time.NewTimer(p.stepTimeout)
		} else {
			c.timer.Reset(p.stepTimeout) // stopped and drained below
		}
		timeout = c.timer.C
	}
	select {
	case m = <-s.seg:
	case <-p.done:
		err = fmt.Errorf("peer closed while waiting")
	case <-timeout:
		timeout = nil
		p.inst.stepTimeouts.Inc()
		err = fmt.Errorf("timeout after %v (dead peer?)", p.stepTimeout)
	}
	if timeout != nil && !c.timer.Stop() {
		<-timeout // a fire the select did not take (go 1.22 timers keep it)
	}
	switch {
	case err != nil || m.err != nil:
		return cmp.Or(err, m.err)
	case m.Chunk != wantChunk:
		return fmt.Errorf("got chunk %d, schedule expects %d (ring misconfigured?)", m.Chunk, wantChunk)
	case m.filled:
		return nil
	}
	vals, raw := compress.RawFloats(m.Payload)
	if !raw || m.Codec != 0 || base == nil {
		into := dst
		if base != nil {
			c.scratch = slices.Grow(c.scratch[:0], len(dst))
			into = c.scratch
		}
		// Capacity clipped to len(dst): a longer segment reallocates
		// instead of overrunning into the neighbouring chunk.
		if vals, err = wire.Floats(into[:0:len(dst)], m.Header, m.Payload); err != nil {
			return err
		}
	}
	if len(vals) != len(dst) {
		return fmt.Errorf("chunk %d has %d values, want %d (vector length mismatch?)", m.Chunk, len(vals), len(dst))
	}
	if base != nil {
		base = base[:len(vals)]
		for i, v := range vals {
			dst[i] = base[i] + v
		}
	}
	return nil
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

func (p *Peer) allReduce(key string, iter uint32, in, out []float32) (err error) {
	m, aliased := p.size, len(in) > 0 && &in[0] == &out[0]
	if m == 1 {
		copy(out, in)
		return nil
	}
	p.mu.Lock()
	c := recycle.Take(&p.colls)
	p.mu.Unlock()
	c.key, c.iter = key, iter
	// Gather step s (step M-1+s) writes chunk (r-s) mod M of out, untouched
	// after reduce-scatter step s's send (and before, for s = 0, unless in
	// is out): its destination is registered then (a closed peer's fails,
	// and so will recvSegment), and withdrawn if the collective fails.
	register := func(s int) {
		_, _ = p.expect(slotKey{key: key, iter: iter, step: uint16(m - 1 + s)}, chunk(out, m, mod(p.rank-s, m)))
	}
	defer func() {
		for t := m - 1; err != nil && t < 2*(m-1); t++ {
			p.release(slotKey{key: key, iter: iter, step: uint16(t)}, nil)
		}
		p.mu.Lock()
		p.colls.Put(c)
		p.mu.Unlock()
	}()
	if !aliased {
		register(0)
	}
	// At step t rank r sends chunk (r-t) mod M, from in at step 0, and
	// receives chunk (r-t-1) mod M: in reduce-scatter (t < M-1) a partial
	// sum it adds to in, so that rank r ends it holding the reduced chunk
	// (r+1) mod M, and in all-gather a reduced chunk.
	for t := 0; t < 2*(m-1); t++ {
		sendChunk, recvChunk := mod(p.rank-t, m), mod(p.rank-t-1, m)
		src, base := out, chunk(in, m, recvChunk)
		if t == 0 {
			src = in
		}
		if t >= m-1 {
			base = nil
		}
		if err := p.sendSegment(key, iter, uint16(t), uint16(sendChunk), chunk(src, m, sendChunk)); err != nil {
			return err
		}
		if t < m-1 && (t > 0 || aliased) {
			register(t)
		}
		if err := p.recvSegment(c, uint16(t), uint16(recvChunk), chunk(out, m, recvChunk), base); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the peer down: the listener stops accepting, all
// connections close, reader goroutines drain, and every collective blocked
// in recvSegment fails with a "peer closed" error instead of hanging.
// Close is idempotent; every call returns once the peer's goroutines have
// exited, so a control handler must not call it.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
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
