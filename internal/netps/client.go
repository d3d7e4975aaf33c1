package netps

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
	"bytescheduler/internal/trace"
	"bytescheduler/internal/wire"
)

// Client hardening and batching bounds. Every client uses them; the
// package's tests tighten the matching unexported fields.
const (
	// DefaultTimeout bounds each write and each push-response read.
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
	// DefaultBatchBytes is the Batcher's flush-by-size threshold.
	DefaultBatchBytes = 256 << 10
	// DefaultBatchDelay is the Batcher's flush deadline — the longest a
	// queued push may wait for companions before being sent anyway, which
	// bounds the latency cost coalescing can impose on an urgent partition.
	DefaultBatchDelay = 500 * time.Microsecond
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
// latency histograms (netps_push_seconds, netps_pull_seconds,
// netps_batch_seconds), retry / redial / server-rejection counters, byte
// counters, an in-flight request gauge, and the framing economics of
// batching — netps_msgs_total counts wire frames written, while
// netps_batched_msgs_total counts the logical sub-messages they carried,
// so msgs/bytes quantifies the per-message overhead θ amortization.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *Client) {
		if reg == nil {
			c.inst = clientInstruments{}
			return
		}
		c.inst = clientInstruments{
			pushSeconds:  reg.Histogram("netps_push_seconds"),
			pullSeconds:  reg.Histogram("netps_pull_seconds"),
			batchSeconds: reg.Histogram("netps_batch_seconds"),
			requests:     reg.Counter("netps_requests_total"),
			msgs:         reg.Counter("netps_msgs_total"),
			batches:      reg.Counter("netps_batches_total"),
			batchedMsgs:  reg.Counter("netps_batched_msgs_total"),
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

// WithTracer records every request as a wall-clock span on the
// "netps/c<id>" lane — the live counterpart of the simulator's fabric
// trace, in the same Chrome-trace schema.
func WithTracer(w *trace.Wall) Option { return func(c *Client) { c.tracer = w } }

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
	batchSeconds *metrics.Histogram
	requests     *metrics.Counter
	msgs         *metrics.Counter
	batches      *metrics.Counter
	batchedMsgs  *metrics.Counter
	retries      *metrics.Counter
	redials      *metrics.Counter
	serverErrors *metrics.Counter
	failures     *metrics.Counter
	bytesPushed  *metrics.Counter
	bytesPulled  *metrics.Counter
	inflight     *metrics.Gauge
}

// Client is one worker's connection pool to a PS shard. Each in-flight
// request uses its own connection (the scheduler above bounds concurrency
// via credit), so pulls blocked on aggregation never head-of-line block
// pushes.
//
// The client is failure-hardened: per-request deadlines, bounded retry
// with exponential backoff and deterministic jitter, and redial-on-stale
// pooled connections (a server may close a pooled connection while it sits
// idle; the first reuse then fails instantly and is replayed on a fresh
// dial without consuming retry budget). Requests carry sequence numbers
// that are stable across retries so the server can deduplicate replayed
// pushes.
type Client struct {
	addr string
	// timeout (DefaultTimeout) bounds every write and a push's response
	// read; pullTimeout (0: wait forever) bounds a pull's wait for
	// aggregation; maxRetries (DefaultRetries) and retryDelay budget and pace
	// transport retries; batchBytes and batchDelay (DefaultBatch*) are the
	// Batcher's flush thresholds. Zero timeouts disable deadlines.
	timeout     time.Duration
	pullTimeout time.Duration
	maxRetries  int
	retryDelay  wire.Backoff
	batchBytes  int
	batchDelay  time.Duration
	id          uint32
	seq         atomic.Uint32
	codec       compress.Codec
	inst        clientInstruments
	tracer      *trace.Wall

	mu      sync.Mutex
	rng     *stats.RNG
	idle    recycle.List[*wire.Conn]
	closed  bool
	encFree recycle.List[[]byte] // idle Push encode buffers; one is held through its round trip's retries
}

// NewClient creates a client for the shard at addr.
func NewClient(addr string, opts ...Option) *Client {
	c := &Client{
		addr:       addr,
		timeout:    DefaultTimeout,
		maxRetries: DefaultRetries,
		retryDelay: wire.Backoff{Base: DefaultBackoffBase, Max: DefaultBackoffMax, Jitter: DefaultBackoffJitter},
		batchBytes: DefaultBatchBytes,
		batchDelay: DefaultBatchDelay,
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

// conn returns a pooled connection (reused=true) or dials a fresh one.
func (c *Client) conn() (conn *wire.Conn, reused bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, fmt.Errorf("netps: client closed")
	}
	if conn = c.idle.Get(); conn != nil {
		c.mu.Unlock()
		return conn, true, nil
	}
	c.mu.Unlock()
	conn, err = c.dial()
	return conn, false, err
}

// dial opens a fresh connection under the client's timeout.
func (c *Client) dial() (*wire.Conn, error) {
	var d net.Dialer
	if c.timeout > 0 {
		d.Timeout = c.timeout
	}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	return wire.NewConn(conn), nil
}

func (c *Client) release(cc *wire.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		cc.Close()
		return
	}
	c.idle.Put(cc)
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// backoff sleeps the exponential, jittered delay for the given attempt.
func (c *Client) backoff(attempt int) {
	c.mu.Lock()
	jitter := c.rng.Jitter(c.retryDelay.Jitter)
	c.mu.Unlock()
	time.Sleep(c.retryDelay.Delay(attempt, jitter))
}

// exchange performs one request/response on one connection, owning the
// connection's fate: pooled on success, closed on failure. The response
// payload is a view of the connection's read buffer, so everything that
// outlives the exchange leaves it before release: recv (nil for a response
// nobody reads) decodes or copies a matching response, and an OpErr's text
// is copied into the ServerError. It returns the response's payload length.
func (c *Client) exchange(conn *wire.Conn, req message, recv func(resp message)) (int, error) {
	if c.timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	if err := conn.WriteFrame(req.Header, req.Payload); err != nil {
		conn.Close()
		return 0, err
	}
	// Count wire frames where they hit the wire: retries and stale-conn
	// redials each write another frame.
	c.inst.msgs.Inc()
	// Pulls wait for cross-worker aggregation and may legitimately block
	// far longer than a push acknowledgement.
	readTimeout := c.timeout
	if Op(req.Op) == OpPull {
		readTimeout = c.pullTimeout
	}
	if readTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(readTimeout))
	} else {
		conn.SetReadDeadline(time.Time{})
	}
	var resp message
	var err error
	if resp.Header, resp.Payload, err = conn.ReadFrame(); err != nil {
		conn.Close()
		return 0, err
	}
	conn.SetDeadline(time.Time{})
	if Op(resp.Op) == OpErr {
		// Application-level rejection: the connection is still in sync.
		rejected := &ServerError{Msg: string(resp.Payload)}
		c.release(conn)
		return 0, rejected
	}
	if resp.Op != req.Op || resp.Key != req.Key || resp.Iter != req.Iter || resp.Seq != req.Seq {
		conn.Close()
		return 0, fmt.Errorf("netps: mismatched response %v/%s/%d", resp.Op, resp.Key, resp.Iter)
	}
	if recv != nil {
		recv(resp)
	}
	c.release(conn)
	return len(resp.Payload), nil
}

// opName labels an op for spans and error text.
func opName(op Op) string {
	switch op {
	case OpPush:
		return "push"
	case OpPull:
		return "pull"
	case OpBatch:
		return "batch"
	default:
		return fmt.Sprintf("op%d", op)
	}
}

// roundTrip sends one request and reads its response, retrying transport
// failures under the backoff policy. The request Seq is stable across
// retries so the server deduplicates replays. Server rejections (OpErr)
// and response mismatches are returned immediately — they are decisions,
// not transport faults.
//
// Every round trip is observed: one latency histogram sample per logical
// request (retries included in its duration), retry/redial/rejection
// counters, byte counters, an in-flight gauge, and — when a tracer is
// attached — one wall-clock span on the client's lane covering the whole
// logical request.
func (c *Client) roundTrip(req message, recv func(resp message)) error {
	req.Seq = c.nextSeq()
	c.inst.requests.Inc()
	c.inst.inflight.Inc()
	start := time.Now()
	n, err := c.attempt(req, recv)
	elapsed := time.Since(start)
	c.inst.inflight.Dec()
	if c.tracer != nil {
		c.tracer.Add(fmt.Sprintf("netps/c%d", c.id),
			fmt.Sprintf("%s %s#%d", opName(Op(req.Op)), req.Key, req.Iter),
			start, start.Add(elapsed))
	}
	switch {
	case err == nil:
		switch Op(req.Op) {
		case OpPush:
			c.inst.pushSeconds.Observe(elapsed.Seconds())
			c.inst.bytesPushed.Add(uint64(len(req.Payload)))
		case OpPull:
			c.inst.pullSeconds.Observe(elapsed.Seconds())
			c.inst.bytesPulled.Add(uint64(n))
		case OpBatch:
			c.inst.batchSeconds.Observe(elapsed.Seconds())
		}
	case isServerError(err):
		c.inst.serverErrors.Inc()
	default:
		c.inst.failures.Inc()
	}
	return err
}

func isServerError(err error) bool {
	_, ok := err.(*ServerError)
	return ok
}

// attempt runs the retry loop for one logical request.
func (c *Client) attempt(req message, recv func(resp message)) (int, error) {
	for attempt := 0; ; attempt++ {
		conn, reused, err := c.conn()
		if err == nil {
			var n int
			n, err = c.exchange(conn, req, recv)
			if err == nil || isServerError(err) {
				return n, err
			}
			if reused {
				// Stale pooled connection: the server closed it while it
				// sat idle, so the request was never processed. Replay
				// immediately on a fresh dial, free of retry budget.
				c.inst.redials.Inc()
				if conn, err = c.dial(); err == nil {
					n, err = c.exchange(conn, req, recv)
					if err == nil || isServerError(err) {
						return n, err
					}
				}
			}
		}
		if attempt >= c.maxRetries || c.isClosed() {
			return 0, err
		}
		c.inst.retries.Inc()
		c.backoff(attempt)
	}
}

// pushMessage frames one push through the client's codec, encoding onto
// dst; the envelope carries what the server needs to decode without
// out-of-band configuration.
func (c *Client) pushMessage(dst []byte, key string, iter uint32, grad []float32) message {
	m := newMessage(OpPush, key, iter, 0, nil)
	m.Payload, m.Codec, m.Orig = wire.AppendFloats(slices.Grow(dst, c.codec.EncodedLen(len(grad))), c.codec, grad)
	return m
}

// Push sends a gradient partition and returns when the server acknowledges
// it.
func (c *Client) Push(key string, iter uint32, grad []float32) error {
	c.mu.Lock()
	buf := c.encFree.Get()
	c.mu.Unlock()
	m := c.pushMessage(buf[:0], key, iter, grad)
	err := c.roundTrip(m, nil)
	c.mu.Lock()
	c.encFree.Put(m.Payload)
	c.mu.Unlock()
	return err
}

// Pull blocks until the partition is aggregated across all workers and
// returns the summed values in a slice of their own.
func (c *Client) Pull(key string, iter uint32) ([]float32, error) {
	return c.pull(key, iter, nil)
}

// PullInto is Pull decoding straight into out, the caller's buffer for the
// partition, instead of into a new slice. An aggregate that does not have
// exactly len(out) values is an error — out is never swapped for a
// reallocated slice behind the caller's back, and nothing is written past
// len(out).
func (c *Client) PullInto(key string, iter uint32, out []float32) error {
	vals, err := c.pull(key, iter, out)
	if err == nil && len(vals) != len(out) {
		return fmt.Errorf("netps: pull response: %d values for a %d-value destination", len(vals), len(out))
	}
	return err
}

// pull is the one pull path: the response is decoded out of the
// connection's read buffer onto out[:0] — capacity clipped to len(out), so
// a longer aggregate reallocates instead of overrunning the caller's
// slice — before the connection is released.
func (c *Client) pull(key string, iter uint32, out []float32) (vals []float32, err error) {
	var derr error
	err = c.roundTrip(newMessage(OpPull, key, iter, 0, nil), func(resp message) {
		vals, derr = wire.Floats(out[:0:len(out)], resp.Header, resp.Payload)
	})
	if err != nil {
		return nil, err
	}
	if derr != nil {
		return nil, fmt.Errorf("netps: pull response: %w", derr)
	}
	return vals, nil
}

// Close closes pooled connections; in-flight round trips own their
// connections and close them on error.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, cc := range c.idle {
		cc.Close()
	}
	c.idle = nil
}
