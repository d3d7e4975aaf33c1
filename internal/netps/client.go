package netps

import (
	"errors"
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

// Client hardening bounds. Every client uses them; the package's tests
// tighten the matching unexported fields.
const (
	// DefaultTimeout bounds each write and each push's wait for its
	// acknowledgement.
	DefaultTimeout = 15 * time.Second
	// DefaultRetries is the per-request transport retry budget.
	DefaultRetries = 3
	// DefaultBackoffBase is the first retry delay; it doubles per attempt.
	DefaultBackoffBase = 5 * time.Millisecond
	// DefaultBackoffMax caps the exponential backoff.
	DefaultBackoffMax = 500 * time.Millisecond
	// DefaultBackoffJitter is the deterministic multiplicative jitter
	// applied to every backoff delay, decorrelating worker retry storms.
	DefaultBackoffJitter = 0.25
)

// clientIDs hands out process-unique client identities for request Seq
// generation (the high 32 bits of every Seq). Multi-process deployments
// should override with WithClientID using the worker rank.
var clientIDs atomic.Uint32

// ServerError is an application-level rejection from the server (OpErr
// response): the transport worked, the request was refused. It is not
// retried at the transport layer; the scheduler's sub-task retry budget
// decides what happens next.
type ServerError struct{ Msg string }

// Error implements error.
func (e *ServerError) Error() string { return "netps: server: " + e.Msg }

// Option configures a Client.
type Option func(*Client)

// WithSeed seeds the deterministic backoff jitter (reproducible tests).
func WithSeed(seed int64) Option { return func(c *Client) { c.rng = stats.NewRNG(seed) } }

// WithClientID overrides the client identity used in request sequence
// numbers. Distinct workers must use distinct IDs so the server's replay
// deduplication never conflates two workers' pushes.
func WithClientID(id uint32) Option { return func(c *Client) { c.id = id } }

// WithMetrics instruments the client against the given registry: request
// latency histograms (netps_push_seconds, netps_pull_seconds), retry /
// redial / server-rejection counters, byte counters, an in-flight request
// gauge, and the framing economics of the one connection —
// netps_msgs_total counts frames written and netps_writes_total the
// writevs that carried them, so msgs per write is how far the per-message
// overhead θ is amortized.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *Client) {
		if reg == nil {
			c.inst = clientInstruments{}
			return
		}
		c.inst = clientInstruments{
			pushSeconds:  reg.Histogram("netps_push_seconds"),
			pullSeconds:  reg.Histogram("netps_pull_seconds"),
			requests:     reg.Counter("netps_requests_total"),
			msgs:         reg.Counter("netps_msgs_total"),
			writes:       reg.Counter("netps_writes_total"),
			retries:      reg.Counter("netps_retries_total"),
			redials:      reg.Counter("netps_redials_total"),
			serverErrors: reg.Counter("netps_server_errors_total"),
			failures:     reg.Counter("netps_transport_failures_total"),
			bytesPushed:  reg.Counter("netps_pushed_bytes_total"),
			bytesPulled:  reg.Counter("netps_pulled_bytes_total"),
			inflight:     reg.Gauge("netps_inflight_requests"),
		}
	}
}

// WithCodec compresses every push through the given wire codec; the
// server decodes, aggregates in fp32, and re-encodes the aggregate with
// the same codec, so pulls come back compressed too. All workers pushing
// one (key, iter) must use the same codec — the server rejects mixed
// codecs. The default is the identity (raw fp32) codec.
func WithCodec(cd compress.Codec) Option { return func(c *Client) { c.codec = cd } }

// clientInstruments are the client's resolved metric handles; all nil (and
// therefore no-ops) unless WithMetrics attached a registry.
type clientInstruments struct {
	pushSeconds  *metrics.Histogram
	pullSeconds  *metrics.Histogram
	requests     *metrics.Counter
	msgs         *metrics.Counter
	writes       *metrics.Counter
	retries      *metrics.Counter
	redials      *metrics.Counter
	serverErrors *metrics.Counter
	failures     *metrics.Counter
	bytesPushed  *metrics.Counter
	bytesPulled  *metrics.Counter
	inflight     *metrics.Gauge
}

// Client is one worker's connection to a PS shard: one TCP connection,
// dialed on first use, that every request pipelines on. The server answers
// each request when it can, so pulls parked on aggregation never hold up
// the pushes behind them, and the client's one reader goroutine hands
// each response to its call by Seq. A caller that finds the connection
// idle writes its own frame and then, in one writev, whatever other
// callers queued meanwhile.
//
// The client is failure-hardened: per-call deadlines, bounded retry with
// exponential backoff and deterministic jitter, and redial: a connection
// that breaks is forgotten, the next call dials afresh, and a call that
// rode a connection opened before it (the server may close one while it
// sits idle) is replayed once on the fresh dial without consuming retry
// budget. Requests carry sequence numbers that are stable across retries
// so the server can deduplicate replayed pushes.
type Client struct {
	addr string
	// timeout (DefaultTimeout) bounds every write and a push's wait for its
	// acknowledgement; pullTimeout (0: wait forever) bounds a pull's wait
	// for aggregation; maxRetries (DefaultRetries) and retryDelay budget and
	// pace transport retries. Zero timeouts disable deadlines.
	timeout     time.Duration
	pullTimeout time.Duration
	maxRetries  int
	retryDelay  wire.Backoff
	id          uint32
	seq         atomic.Uint32
	codec       compress.Codec
	inst        clientInstruments

	dialMu  sync.Mutex     // one dial at a time, so concurrent first calls share it
	readers sync.WaitGroup // each connection's reader, which Close waits for
	mu      sync.Mutex
	rng     *stats.RNG
	cc      *clientConn // the connection; nil before the first dial and after it broke
	closed  bool
	calls   recycle.List[*call] // idle call records with their buffers
}

// errClientClosed fails the calls a closing client leaves pending, and
// every call after.
var errClientClosed = errors.New("netps: client closed")

// NewClient creates a client for the shard at addr.
func NewClient(addr string, opts ...Option) *Client {
	c := &Client{
		addr:       addr,
		timeout:    DefaultTimeout,
		maxRetries: DefaultRetries,
		retryDelay: wire.Backoff{Base: DefaultBackoffBase, Max: DefaultBackoffMax, Jitter: DefaultBackoffJitter},
		id:         clientIDs.Add(1),
	}
	for _, o := range opts {
		o(c)
	}
	if c.rng == nil {
		// Deterministic per-client default; distinct per client so worker
		// retry storms decorrelate even without explicit seeding.
		c.rng = stats.NewRNG(int64(c.id))
	}
	return c
}

// nextSeq returns a process-unique request sequence number, stable across
// the retries of one logical request.
func (c *Client) nextSeq() uint64 {
	return uint64(c.id)<<32 | uint64(c.seq.Add(1))
}

// call is one logical request, a record on its client's free list. The
// caller owns it until it sends the call and again once done has fired; in
// between, the writer reads req and whoever claims the call — the reader
// with its response, the call's deadline or a failure, first come only —
// fills in the outcome.
type call struct {
	req    message
	resp   message // the response; a pull's payload sits in out (if filled) or enc
	out    []float32
	filled bool
	enc    []byte // the record's buffer: a codec push's encoding or a pull's response
	err    error  // the attempt's outcome: nil, a *ServerError or a transport error
	// done receives once per attempt, when nothing but the caller will
	// touch the call again; timer paces its deadline.
	done  chan struct{}
	timer *time.Timer
	// Under the connection's mu: held while the frame is queued or being
	// written, which is when the writer, not the claimant, signals done.
	held, settled bool
}

// clientConn is the client's one connection: a write queue drained by
// whichever caller finds it idle, and one reader goroutine.
type clientConn struct {
	conn *wire.Conn

	mu      sync.Mutex
	pending map[uint64]*call // sent or queued calls not yet claimed, by Seq
	queue   []*call          // calls whose frames wait for the writer
	spare   []*call          // the writer's previous batch, reused as the next queue
	writing bool             // a caller is draining queue; queue is empty otherwise
	err     error            // why the connection broke; nil while it serves
}

// conn returns the client's connection, dialing it if there is none.
// reused reports a connection this caller did not just see dialed.
func (c *Client) conn() (cc *clientConn, reused bool, err error) {
	if cc, err = c.current(); cc != nil || err != nil {
		return cc, true, err
	}
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	if cc, err = c.current(); cc != nil || err != nil {
		return cc, false, err // dialed while this caller waited
	}
	raw, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, false, err
	}
	cc = &clientConn{conn: wire.NewConn(raw), pending: make(map[uint64]*call)}
	c.mu.Lock()
	closed := c.closed
	if !closed {
		c.cc = cc
		c.readers.Add(1) // under mu while open: ordered before Close's Wait
	}
	c.mu.Unlock()
	if closed {
		raw.Close()
		return nil, false, errClientClosed
	}
	go c.read(cc)
	return cc, false, nil
}

// current returns the live connection, if any.
func (c *Client) current() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	return c.cc, nil
}

// backoff sleeps the exponential, jittered delay for the given attempt.
func (c *Client) backoff(attempt int) {
	c.mu.Lock()
	jitter := c.rng.Jitter(c.retryDelay.Jitter)
	c.mu.Unlock()
	time.Sleep(c.retryDelay.Delay(attempt, jitter))
}

// send registers k on cc and queues its frame; on a broken connection k
// settles at once with the break. If no caller is writing, this one
// becomes the writer and drains the queue.
func (c *Client) send(cc *clientConn, k *call) {
	cc.mu.Lock()
	if k.err = cc.err; k.err != nil {
		cc.mu.Unlock()
		k.done <- struct{}{}
		return
	}
	cc.pending[k.req.Seq] = k
	k.held = true
	cc.queue = append(cc.queue, k)
	if !cc.writing {
		cc.writing = true
		c.drain(cc)
	}
	cc.mu.Unlock()
}

// drain is the writer's loop: it writes the queue in one writev, then
// whatever queued during that write, until the queue is empty — on a
// broken connection it only releases the frames — and gives up writing.
// Caller holds cc.mu and has set cc.writing.
func (c *Client) drain(cc *clientConn) {
	for len(cc.queue) > 0 {
		batch, broken := cc.queue, cc.err != nil
		cc.queue = cc.spare
		cc.mu.Unlock()
		if !broken {
			if err := c.write(cc, batch); err != nil {
				c.fail(cc, err) // a torn write leaves the stream out of sync
			}
		}
		cc.mu.Lock()
		for _, k := range batch {
			if k.held = false; k.settled {
				k.settled = false
				k.done <- struct{}{}
			}
		}
		clear(batch)
		cc.spare = batch[:0]
	}
	cc.writing = false
}

// write stages batch's frames and writes them in one writev under the
// write deadline. A frame wire refuses (its key or payload over the
// limits) settles its call with the refusal, and the rest still go.
func (c *Client) write(cc *clientConn, batch []*call) error {
	frames := 0
	for _, k := range batch {
		if err := cc.conn.Stage(k.req.Header, k.req.Payload); err != nil {
			cc.mu.Lock()
			cc.settle(k, err)
			cc.mu.Unlock()
			continue
		}
		frames++
	}
	if c.timeout > 0 {
		cc.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	if err := cc.conn.Flush(); err != nil || frames == 0 {
		return err
	}
	c.inst.writes.Inc()
	c.inst.msgs.Add(uint64(frames))
	return nil
}

// settle claims k, if it is still pending (a call is claimed once per
// attempt), and resolves it with err. Caller holds cc.mu, as for resolve.
func (cc *clientConn) settle(k *call, err error) {
	if cc.pending[k.req.Seq] == k {
		delete(cc.pending, k.req.Seq)
		cc.resolve(k, err)
	}
}

// resolve gives the claimed call k its outcome err; its caller is signalled
// now or — while the writer holds its frame — once the writer lets go.
func (cc *clientConn) resolve(k *call, err error) {
	k.err = err
	if k.held {
		k.settled = true
	} else {
		k.done <- struct{}{}
	}
}

// fail breaks cc: the client forgets it, so the next call dials afresh;
// every call on it settles with err, exactly once; and the socket closes,
// which ends its reader. A second failure changes nothing.
func (c *Client) fail(cc *clientConn, err error) {
	c.mu.Lock()
	if c.cc == cc {
		c.cc = nil
	}
	c.mu.Unlock()
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		for _, k := range cc.pending {
			cc.settle(k, err)
		}
	}
	cc.mu.Unlock()
	cc.conn.Close()
}

// read is cc's one reader: it claims the call a response's Seq names once
// the header is in, reads a pull's payload into out if it is raw fp32 of
// out's size (else into enc) and resolves the call, until a read fails.
func (c *Client) read(cc *clientConn) {
	defer c.readers.Done()
	var k *call // the call the frame being read answers, if any
	pick := func(h wire.Header, n int) []byte {
		cc.mu.Lock()
		k = cc.pending[h.Seq]
		delete(cc.pending, h.Seq)
		cc.mu.Unlock()
		if k == nil || Op(h.Op) != OpPull || h.Op != k.req.Op {
			return nil // into the connection's buffer
		}
		raw, ok := compress.RawBytes(k.out)
		if k.filled = ok && h.Codec == 0 && n == len(raw); k.filled {
			return raw
		}
		return k.enc[:cap(k.enc)]
	}
	for {
		k = nil
		h, payload, err := cc.conn.ReadFrameInto(pick)
		if err = cc.deliver(k, h, payload, err); err != nil {
			c.fail(cc, err)
			return
		}
	}
}

// deliver resolves k, claimed for h (nil: abandoned at its deadline), with
// the read's outcome and returns what breaks the connection: err, or h not
// answering k. A pull's payload that outgrew enc, and so landed in the
// connection's buffer, is copied into enc; an OpErr's text too.
func (cc *clientConn) deliver(k *call, h wire.Header, payload []byte, err error) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	switch {
	case k == nil:
	case err != nil:
		cc.resolve(k, err)
	case Op(h.Op) == OpErr:
		// Application-level rejection: the stream is still in sync.
		cc.resolve(k, &ServerError{Msg: string(payload)})
	case h.Op != k.req.Op || h.Key != k.req.Key || h.Iter != k.req.Iter:
		err = fmt.Errorf("netps: mismatched response %v/%s/%d", h.Op, h.Key, h.Iter)
		cc.resolve(k, err)
	default:
		if Op(h.Op) == OpPull {
			if !k.filled && len(payload) > cap(k.enc) {
				k.enc = append(k.enc[:0], payload...)
				payload = k.enc
			}
			k.resp = message{Header: h, Payload: payload}
		}
		cc.resolve(k, nil)
	}
	return err
}

// wait blocks until k settles or its deadline (zero: none) passes. At the
// deadline the call is abandoned — a response that still comes is dropped
// — and wait returns once the writer (or the reader, mid-response) lets go.
func (c *Client) wait(cc *clientConn, k *call, deadline time.Time) {
	if deadline.IsZero() {
		<-k.done
		return
	}
	if k.timer == nil {
		k.timer = time.NewTimer(time.Until(deadline))
	} else {
		k.timer.Reset(time.Until(deadline))
	}
	for {
		select {
		case <-k.done:
			if !k.timer.Stop() {
				select {
				case <-k.timer.C:
				default:
				}
			}
			return
		case <-k.timer.C:
			if left := time.Until(deadline); left > 0 {
				k.timer.Reset(left) // a tick left over from an earlier wait
				continue
			}
			cc.mu.Lock()
			cc.settle(k, fmt.Errorf("netps: %s %s#%d: no response within its deadline", opName(Op(k.req.Op)), k.req.Key, k.req.Iter))
			cc.mu.Unlock()
			<-k.done
			return
		}
	}
}

// opName labels a call's op for error text.
func opName(op Op) string {
	if op == OpPush {
		return "push"
	}
	return "pull"
}

func isServerError(err error) bool {
	_, ok := err.(*ServerError)
	return ok
}

// roundTrip runs k to completion, retrying transport failures under the
// backoff policy; its outcome is in k.err. Its Seq is assigned here and
// stays stable across retries, so the server deduplicates replays; a
// server rejection (OpErr) is a decision, not a fault, and is never
// retried. The call is observed as one logical request across its retries:
// one latency sample, and its byte and outcome counters.
func (c *Client) roundTrip(k *call) {
	k.req.Seq = c.nextSeq()
	c.inst.requests.Inc()
	c.inst.inflight.Add(1)
	start := time.Now()
	if err := c.attempt(k); err != nil {
		k.err = err // the last attempt may not have reached the call
	}
	elapsed := time.Since(start)
	c.inst.inflight.Add(-1)
	switch {
	case k.err == nil && Op(k.req.Op) == OpPush:
		c.inst.pushSeconds.Observe(elapsed.Seconds())
		c.inst.bytesPushed.Add(uint64(len(k.req.Payload)))
	case k.err == nil:
		c.inst.pullSeconds.Observe(elapsed.Seconds())
		c.inst.bytesPulled.Add(uint64(len(k.resp.Payload)))
	case isServerError(k.err):
		c.inst.serverErrors.Inc()
	default:
		c.inst.failures.Inc()
	}
}

// attempt runs the retry loop while k fails on the transport.
func (c *Client) attempt(k *call) error {
	for attempt := 0; ; attempt++ {
		err := c.try(k)
		if err == nil || attempt >= c.maxRetries {
			return err
		}
		if _, closed := c.current(); closed != nil {
			return err
		}
		c.inst.retries.Inc()
		c.backoff(attempt)
	}
}

// try is one attempt. If it rode a connection opened before it and that
// connection broke — the server may close a connection while it sits idle,
// so the request was never processed — it replays once, immediately, on
// a fresh dial, free of retry budget.
func (c *Client) try(k *call) error {
	cc, reused, err := c.conn()
	if err != nil {
		return err
	}
	if err = c.exchange(cc, k); err != nil && reused {
		if cur, _ := c.current(); cur != cc { // failed and forgotten
			if cc, _, err = c.conn(); err == nil {
				c.inst.redials.Inc()
				err = c.exchange(cc, k)
			}
		}
	}
	return err
}

// exchange sends k over cc and waits for it under its deadline, counted
// from the send: pulls wait for cross-worker aggregation, far longer than
// a push's ack may take. It returns k's transport error, if any; a
// server's rejection stays in k.err alone.
func (c *Client) exchange(cc *clientConn, k *call) error {
	d, deadline := c.timeout, time.Time{}
	if Op(k.req.Op) == OpPull {
		d = c.pullTimeout
	}
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	c.send(cc, k)
	c.wait(cc, k, deadline)
	if isServerError(k.err) {
		return nil // an answer, not a transport failure: never retried
	}
	return k.err
}

// newCall takes a call record off the free list for op on (key, iter).
func (c *Client) newCall(op Op, key string, iter uint32) *call {
	c.mu.Lock()
	k := recycle.Take(&c.calls)
	c.mu.Unlock()
	if k.done == nil {
		k.done = make(chan struct{}, 1)
	}
	k.req = newMessage(op, key, iter, 0, nil)
	return k
}

// release returns a settled call's record to the free list, poisoning its
// buffer under test and dropping its references to caller memory.
func (c *Client) release(k *call) {
	recycle.Poison(k.enc)
	k.req, k.resp, k.err, k.out, k.filled = message{}, message{}, nil, nil, false
	c.mu.Lock()
	c.calls.Put(k)
	c.mu.Unlock()
}

// pushCall is a call record carrying one push through every retry: grad's
// own memory under the identity codec, else grad encoded into enc.
func (c *Client) pushCall(key string, iter uint32, grad []float32) *call {
	k := c.newCall(OpPush, key, iter)
	if raw, ok := compress.RawBytes(grad); ok && c.codec.IsIdentity() {
		k.req.Payload = raw
	} else {
		k.enc, k.req.Codec, k.req.Orig = wire.AppendFloats(slices.Grow(k.enc[:0], c.codec.EncodedLen(len(grad))), c.codec, grad)
		k.req.Payload = k.enc
	}
	return k
}

// Push sends a gradient partition and returns when the server acknowledges
// it; grad must not change until then (the frame may be written from it).
func (c *Client) Push(key string, iter uint32, grad []float32) error {
	k := c.pushCall(key, iter, grad)
	c.roundTrip(k)
	err := k.err
	c.release(k)
	return err
}

// Pull blocks until the partition is aggregated across all workers and
// returns the summed values in a slice of their own.
func (c *Client) Pull(key string, iter uint32) ([]float32, error) {
	return c.pull(key, iter, nil)
}

// PullInto is Pull into out, the caller's buffer for the partition, instead
// of a new slice: a raw fp32 aggregate is read off the socket into out. An
// aggregate that does not have exactly len(out) values is an error — out is
// never swapped for a reallocated slice behind the caller's back, and
// nothing is written past len(out). Only PullInto itself writes into out: a
// response that arrives after its deadline is dropped.
func (c *Client) PullInto(key string, iter uint32, out []float32) error {
	vals, err := c.pull(key, iter, out)
	if err == nil && len(vals) != len(out) {
		return fmt.Errorf("netps: pull response: %d values for a %d-value destination", len(vals), len(out))
	}
	return err
}

// pull is the one pull path: unless the reader filled out, the caller
// decodes the response out of enc onto out[:0] — capacity clipped to
// len(out), so a longer aggregate reallocates instead of overrunning it.
func (c *Client) pull(key string, iter uint32, out []float32) ([]float32, error) {
	k := c.newCall(OpPull, key, iter)
	k.out = out
	c.roundTrip(k)
	vals, err := out, k.err
	if err == nil && !k.filled {
		if vals, err = wire.Floats(out[:0:len(out)], k.resp.Header, k.resp.Payload); err != nil {
			vals, err = nil, fmt.Errorf("netps: pull response: %w", err)
		}
	}
	c.release(k)
	return vals, err
}

// Close fails every call still pending, once each, closes the connection,
// waits for its reader to exit, and makes every later call fail.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	cc := c.cc
	c.mu.Unlock()
	if cc != nil {
		c.fail(cc, errClientClosed)
	}
	c.readers.Wait()
}
