package netps

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/ps"
	"bytescheduler/internal/recycle"
	"bytescheduler/internal/wire"
)

// errServerClosed is the error text sent to pull waiters failed by Close.
const errServerClosed = "server closed"

// errAggregateReclaimed is the error text answering a pull for an
// iteration older than its key's last reclaimed one: the data is gone, so
// the client must surface the error to its retry budget instead of waiting
// for pushes that will never come.
const errAggregateReclaimed = "aggregate reclaimed"

// DefaultShards is the number of independent lock domains the (key, iter)
// entry space is partitioned across. Keys map to shards by ps.KeyHash —
// the same stable FNV-1a the hash-ring assigner uses to place keys across
// servers — so a replayed push always lands in the shard that remembers
// its entry.
const DefaultShards = 16

// DefaultServerReadTimeout bounds how long the rest of a frame may take to
// arrive once its first byte has: a peer that stalls mid-frame is dropped
// after this long instead of holding its serve goroutine and buffers
// forever. Idle connections carry no deadline.
const DefaultServerReadTimeout = 30 * time.Second

// DefaultServerWriteTimeout bounds each response write, so a peer that
// stops draining its socket is dropped after this long instead of wedging
// the goroutine writing to it (or Close) forever.
const DefaultServerWriteTimeout = 15 * time.Second

// Server is a single parameter-server process: it sums fp32 payloads
// pushed by Workers distinct workers per (key, iteration) and answers
// pulls once every worker has pushed. Deploy one Server per PS rank and
// spread keys across them, exactly like the simulated cluster.
//
// Internally the server is sharded: the (key, iter) entry space is
// partitioned across independent lock domains by ps.KeyHash, so requests
// for different keys do not contend on one global mutex. Every connection
// is read by its own goroutine, the only goroutines besides the accept
// loop; the netpoller is the multiplexer. The reader answers pushes and
// ready pulls itself and keeps reading while a pull waits: a parked pull is
// a record on its entry, and the push completing the entry writes its ack
// (which returns the pusher's credit), then answers each parked pull on the
// puller's connection under its write lock and deadline. So responses on a
// connection may leave in another order than their requests came, and a
// puller that stops draining its socket delays its completing pusher by at
// most the write timeout, then is dropped: later writes to it fail at once.
//
// The server is hardened for the live path: application errors are
// answered with OpErr instead of dropping the connection, a second push
// from one client to one (key, iter) — a retry under the same Seq or a
// re-send under a fresh one — is acknowledged without double-summing,
// a retried pull arriving after its aggregate was reclaimed is re-answered
// from its key's last reclaimed aggregate, and Close fails every blocked
// pull waiter and open connection instead of leaking them — a crashed or
// drained shard surfaces as an error at the worker, never as a hang.
//
// Replay after reclaim rests on a contract every caller keeps: a key's
// iterations increase, and a worker retries only its latest pull of a key.
// A worker cannot push (key, i+1) before its pull of (key, i) returns, so
// iteration i is still its key's last reclaimed one whenever a retry of
// that pull can come. So each key retains one aggregate, the model's size
// and no budget: a pull for that iteration is re-answered from it, one for
// an older iteration fails fast, and a push replay for either is
// acknowledged without being summed.
type Server struct {
	workers int
	// shardCount (DefaultShards) and the read and write deadlines
	// (DefaultServer*Timeout; zero disables) are fields so the package's
	// tests can shrink them.
	shardCount   int
	readTimeout  time.Duration
	writeTimeout time.Duration
	inst         serverInstruments

	shards []*shard

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*srvConn
	closed bool

	// closing is the lock-free mirror of closed, re-checked under each
	// shard lock: Close sets it before sweeping the shards for parked
	// pulls, so any request that would park one after the sweep observes
	// it and is rejected instead of leaking.
	closing atomic.Bool

	// wg covers the accept loop and every connection's serve goroutine;
	// goroutines counts the same set for Goroutines.
	wg         sync.WaitGroup
	goroutines atomic.Int64
}

// shard is one lock domain: a partition of the entry space and the last
// reclaimed aggregate of each of its keys. A key's pushes, pulls, and
// replays all hash to the same shard, so exactly-once summing needs only
// this one lock.
type shard struct {
	mu      sync.Mutex
	entries map[entryKey]*entry
	done    map[string]reclaimed
	// Free lists of reclaimed entries (their lists keep their capacity),
	// unreferenced aggregate records and unheld sums.
	entryFree recycle.List[*entry]
	aggFree   recycle.List[*agg]
	sums      recycle.List[[]float32]
}

// reclaimed is a key's last reclaimed iteration and its aggregate, holding
// the reference the entry held.
type reclaimed struct {
	iter uint32
	a    *agg
}

type entryKey struct {
	key  string
	iter uint32
}

// entry is one (key, iter)'s aggregation, a record on its shard's free list
// from its reclaim until the shard's next new (key, iter): a key's entry of
// one iteration is its entry of the next.
type entry struct {
	// sum is the running fp32 aggregate, a vector from the shard's sums held
	// from the first push until the completing one makes result of it. n is
	// its length — the entry's shape, fixed by the first push and outliving
	// sum, 0 until then (an empty push is rejected before it shapes anything).
	sum    []float32
	n      int
	pushes int
	// codec is the wire codec all of this entry's pushes arrived under
	// (fixed by the first push; mixed-codec pushes to one key are
	// rejected). Pull responses re-encode the aggregate with it.
	codec uint8
	// topk is the per-worker element count of top-k pushes (from the first
	// push's payload header), so the aggregate is re-sparsified to the same
	// count; 0 for other codecs.
	topk uint32
	// result is sum's wire form under codec, made (raw: sum itself) when
	// aggregation completes (overflow pushes are rejected from then on) and
	// only read by every pull response after, each holding a reference.
	result *agg
	// pushers and pullers are the clients (the high half of a request's
	// Seq) whose push this entry summed and whose pull it counted as served,
	// at most workers each. Every worker pushes and pulls a (key, iter)
	// once, so a client already listed is replaying — after a lost response,
	// or re-sending under a fresh Seq — and is answered without being
	// counted again.
	pushers, pullers []uint32
	// parked are the pulls waiting on this entry; the completing push (or
	// Close, failing them) copies them out and answers each exactly once.
	parked []parkedPull
	served int
}

// parkedPull is a pull waiting for its aggregate: the connection to answer
// on and the request to echo.
type parkedPull struct {
	sc *srvConn
	h  wire.Header
}

// listed reports whether seq's client is in ids. Seq 0 carries no client,
// so it is never a replay.
func listed(ids []uint32, seq uint64) bool {
	return seq != 0 && slices.Contains(ids, uint32(seq>>32))
}

// list adds seq's client to ids, unless seq is 0.
func list(ids []uint32, seq uint64) []uint32 {
	if seq == 0 {
		return ids
	}
	return append(ids, uint32(seq>>32))
}

// agg is a completed aggregate in wire form, a record on its shard's free
// list: the payload and codec envelope fields every pull response echoes,
// as wire.AppendFloats returned them (raw: the sum), and a reference count
// kept under the shard lock — one for the entry until reclaim hands it to
// its key's done slot, and one per pull handed it until its response is
// written.
type agg struct {
	payload []byte
	codec   uint8
	orig    uint32
	refs    int
}

// unref drops one of a's references; the last returns a raw payload to sums
// or poisons an encoded one, and frees a. Caller holds the shard lock.
func (sh *shard) unref(a *agg) {
	if a.refs--; a.refs == 0 {
		if sum, ok := compress.RawFloats(a.payload[:cap(a.payload)]); ok && a.codec == 0 {
			sh.sums.Put(sum)
			a.payload = nil
		}
		recycle.Poison(a.payload)
		sh.aggFree.Put(a)
	}
}

// serverInstruments are the server's resolved metric handles; all nil
// (no-ops) unless WithServerMetrics attached a registry.
type serverInstruments struct {
	pushes        *metrics.Counter
	pulls         *metrics.Counter
	dedupHits     *metrics.Counter
	rejects       *metrics.Counter
	replayedPulls *metrics.Counter
	lostPulls     *metrics.Counter
	entries       *metrics.Gauge
	conns         *metrics.Gauge
	shardsGauge   *metrics.Gauge
	parkedPulls   *metrics.Gauge
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerMetrics instruments the server against the given registry:
// push/pull counters, a dedup hit counter, rejection and replayed/lost-pull
// counters, and gauges for live entries, open connections, shard count,
// and parked pulls.
func WithServerMetrics(reg *metrics.Registry) ServerOption {
	return func(s *Server) {
		if reg == nil {
			s.inst = serverInstruments{}
			return
		}
		s.inst = serverInstruments{
			pushes:        reg.Counter("netps_server_pushes_total"),
			pulls:         reg.Counter("netps_server_pulls_total"),
			dedupHits:     reg.Counter("netps_server_dedup_hits_total"),
			rejects:       reg.Counter("netps_server_rejects_total"),
			replayedPulls: reg.Counter("netps_server_replayed_pulls_total"),
			lostPulls:     reg.Counter("netps_server_lost_pulls_total"),
			entries:       reg.Gauge("netps_server_entries"),
			conns:         reg.Gauge("netps_server_conns"),
			shardsGauge:   reg.Gauge("netps_server_shards"),
			parkedPulls:   reg.Gauge("netps_server_parked_pulls"),
		}
	}
}

// NewServer creates a server expecting the given number of workers per key
// per iteration.
func NewServer(workers int, opts ...ServerOption) (*Server, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("netps: need at least one worker, got %d", workers)
	}
	s := &Server{
		workers:      workers,
		shardCount:   DefaultShards,
		readTimeout:  DefaultServerReadTimeout,
		writeTimeout: DefaultServerWriteTimeout,
		conns:        make(map[net.Conn]*srvConn),
	}
	for _, o := range opts {
		o(s)
	}
	s.shards = make([]*shard, s.shardCount)
	for i := range s.shards {
		s.shards[i] = &shard{entries: make(map[entryKey]*entry), done: make(map[string]reclaimed)}
	}
	s.inst.shardsGauge.Set(int64(s.shardCount))
	return s, nil
}

// shard returns the lock domain owning key, by the same stable FNV-1a hash
// the ps assigners use to place keys across servers.
func (s *Server) shard(key string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	return s.shards[ps.KeyHash(key)%uint64(len(s.shards))]
}

// Listen binds to addr (e.g. "127.0.0.1:0") and serves connections until
// Close. It returns the bound address. A server listens once: Close stops
// one accept loop, so a second Listen is an error.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("netps: server closed")
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("netps: already listening")
	}
	s.ln = ln
	s.wg.Add(1)
	s.mu.Unlock()
	s.goroutines.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// acceptLoop starts one serve goroutine per accepted connection.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	defer s.goroutines.Add(-1)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		sc := &srvConn{s: s, conn: wire.NewConn(conn)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = sc
		s.inst.conns.Set(int64(len(s.conns)))
		s.mu.Unlock()
		// This loop's own wg count is still held, so Add cannot race the
		// Wait in Close.
		s.wg.Add(1)
		s.goroutines.Add(1)
		go s.serve(sc)
	}
}

// srvConn is one accepted connection's server-side state. Only its serve
// goroutine reads the connection; it writes its own responses, a push that
// completes an aggregate writes the responses to pulls parked there, and
// Close fails those still parked, one response at a time under wmu.
// A request's payload is a view of the connection's read buffer, consumed
// before the next read; scratch is processPush's.
type srvConn struct {
	s       *Server
	conn    *wire.Conn
	scratch pushScratch
	wmu     sync.Mutex
}

// pushScratch is what processPush fills for its caller: vals, a
// codec-bearing push decoded, and wake, the pulls parked on the aggregate
// the push completed, copied out of their entry.
type pushScratch struct {
	vals []float32
	wake []parkedPull
}

// write frames and writes one response under the server's write deadline
// (one writev for header + payload). On failure it drops the connection —
// framing may be torn mid-frame.
func (sc *srvConn) write(m message) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if d := sc.s.writeTimeout; d > 0 {
		sc.conn.SetWriteDeadline(time.Now().Add(d))
	}
	err := sc.conn.WriteFrame(m.Header, m.Payload)
	if err != nil {
		sc.close()
	}
	return err
}

// close removes the connection from the server's table and closes the
// socket. Called by the serve goroutine on its way out and by
// Server.Close to unblock it; a second call is harmless.
func (sc *srvConn) close() {
	sc.s.mu.Lock()
	delete(sc.s.conns, sc.conn.Conn)
	sc.s.inst.conns.Set(int64(len(sc.s.conns)))
	sc.s.mu.Unlock()
	sc.conn.Close()
}

// serve is the connection's request loop: read one frame, answer it —
// or, for a pull that must wait, park it on its entry — repeat until the
// peer hangs up, a frame is malformed, or a write fails, then drop the
// connection.
func (s *Server) serve(sc *srvConn) {
	defer s.wg.Done()
	defer s.goroutines.Add(-1)
	defer sc.close()
	for {
		// An idle connection waits for its next frame with no deadline; once
		// the first byte is here the rest must follow within readTimeout, so
		// a peer stalled mid-frame is dropped instead of parked forever.
		if err := sc.conn.Await(); err != nil {
			return // EOF, or closed by Close
		}
		if s.readTimeout > 0 {
			sc.conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		}
		var req message
		var err error
		if req.Header, req.Payload, err = sc.conn.ReadFrame(); err != nil {
			return // broken or stalled peer, or malformed/oversized frame
		}
		if s.readTimeout > 0 {
			sc.conn.SetReadDeadline(time.Time{})
		}
		switch Op(req.Op) {
		case OpPush:
			resp, wake, result := s.processPush(req, &sc.scratch)
			err = sc.write(resp) // the ack first: it returns the pusher's credit
			s.wake(wake, result)
			if err != nil {
				return
			}
		case OpPull:
			result, parked, errResp := s.resolvePull(req, sc)
			switch {
			case errResp != nil:
				if sc.write(*errResp) != nil {
					return
				}
			case !parked && !sc.answer(req.Header, result):
				return
			}
		default:
			// Protocol error: tell the peer, then drop the connection —
			// framing may be out of sync.
			sc.write(s.rejectMsg(req, "unknown op")) //nolint:errcheck // dropping anyway
			return
		}
	}
}

// answer writes the response to the pull h with its resolved aggregate —
// nil when Close failed it parked, instead of leaving it to hang — and
// then counts it served. It reports whether the connection still stands.
func (sc *srvConn) answer(h wire.Header, result *agg) bool {
	s := sc.s
	req := message{Header: h}
	if result == nil {
		return sc.write(s.rejectMsg(req, errServerClosed)) == nil
	}
	if sc.write(pullResp(req, result)) != nil {
		sh := s.shard(h.Key) // not served: only drop the reference
		sh.mu.Lock()
		sh.unref(result)
		sh.mu.Unlock()
		return false
	}
	s.countPullServed(req, result)
	return true
}

// rejectMsg builds an OpErr response and counts the rejection.
func (s *Server) rejectMsg(req message, text string) message {
	s.inst.rejects.Inc()
	return newMessage(OpErr, req.Key, req.Iter, req.Seq, []byte(text))
}

// pushAck is the empty-payload acknowledgement echoing a push's identity.
func pushAck(req message) message {
	return newMessage(OpPush, req.Key, req.Iter, req.Seq, nil)
}

// pullResp frames a completed aggregate as a pull response, echoing the
// codec envelope fields so the client can decode.
func pullResp(req message, a *agg) message {
	m := newMessage(OpPull, req.Key, req.Iter, req.Seq, a.payload)
	m.Codec, m.Orig = a.codec, a.orig
	return m
}

// processPush applies one push and returns its response (ack or OpErr)
// plus the pulls parked on the aggregate it completed, each holding a
// reference on it; the caller writes the response, then answers them
// outside the shard lock (wake). A codec-bearing push is decoded into the
// caller's scratch, and the woken pulls are copied into it, valid until
// the caller's next push.
func (s *Server) processPush(req message, scratch *pushScratch) (resp message, wake []parkedPull, result *agg) {
	s.inst.pushes.Inc()
	if len(req.Payload) == 0 {
		// An empty push would freeze the entry's shape at length zero and
		// poison every later well-formed push with a size mismatch.
		return s.rejectMsg(req, "empty push payload"), nil, nil
	}
	// Decode codec-bearing payloads before taking the shard lock; the
	// aggregate is always summed in fp32.
	var vals []float32 // decoded view; nil on the identity fast path
	var topk uint32
	n := len(req.Payload) / 4
	if req.Codec != 0 {
		var err error
		if vals, err = wire.Floats(scratch.vals[:0], req.Header, req.Payload); err != nil {
			return s.rejectMsg(req, "undecodable push: "+err.Error()), nil, nil
		}
		scratch.vals = vals
		n = len(vals)
		// Decoding validated the payload, so a top-k one has its count.
		if compress.CodecID(req.Codec) == compress.CodecTopK {
			if topk = binary.BigEndian.Uint32(req.Payload); topk == 0 {
				return s.rejectMsg(req, "empty top-k push"), nil, nil
			}
		}
	} else if len(req.Payload)%4 != 0 {
		// The frame itself was well-formed, so the stream stays in sync:
		// reject the request but keep the connection.
		return s.rejectMsg(req, "push payload not a float32 vector"), nil, nil
	}
	sh := s.shard(req.Key)
	sh.mu.Lock()
	if s.closing.Load() {
		sh.mu.Unlock()
		return s.rejectMsg(req, errServerClosed), nil, nil
	}
	k := entryKey{req.Key, req.Iter}
	e, ok := sh.entries[k]
	if !ok {
		if d, ok := sh.done[k.key]; ok && req.Seq != 0 && k.iter <= d.iter {
			// A replay arriving after its entry was reclaimed: acknowledged,
			// not summed into a fresh aggregate.
			sh.mu.Unlock()
			s.inst.dedupHits.Inc()
			return pushAck(req), nil, nil
		}
		e = sh.newEntry(k)
		s.inst.entries.Add(1)
	}
	if e.n == 0 {
		e.n, e.codec, e.topk = n, req.Codec, topk
	}
	if e.n != n {
		sh.mu.Unlock()
		return s.rejectMsg(req, fmt.Sprintf("push size mismatch for %s", req.Key)), nil, nil
	}
	if e.codec != req.Codec {
		// Mixed codecs on one (key, iter) would make the re-encoded
		// aggregate wrong for at least one worker's decoder.
		sh.mu.Unlock()
		return s.rejectMsg(req, fmt.Sprintf("push codec mismatch for %s", req.Key)), nil, nil
	}
	if listed(e.pushers, req.Seq) {
		// This client's push is already summed: a retry after a lost ack,
		// or a re-send under a fresh Seq. Acknowledge without summing.
		sh.mu.Unlock()
		s.inst.dedupHits.Inc()
		return pushAck(req), nil, nil
	}
	if e.pushes >= s.workers {
		// More pushes than workers for one (key, iter): a protocol misuse
		// that would corrupt the aggregate other workers already pulled.
		sh.mu.Unlock()
		return s.rejectMsg(req, fmt.Sprintf("push overflow for %s (all %d workers already pushed)", req.Key, s.workers)), nil, nil
	}
	if e.pushes == 0 {
		// The first push is the sum so far: assigned, not added to zeros.
		if sum := sh.sums.Get()[:0]; vals != nil {
			e.sum = append(sum, vals...)
		} else {
			e.sum, _ = wire.Floats(sum, req.Header, req.Payload) // raw fp32, length checked above
		}
	} else if sum := e.sum; vals != nil {
		for i := range sum {
			sum[i] += vals[i]
		}
	} else {
		_ = compress.AddRaw(sum, req.Payload) // length checked above
	}
	e.pushers = list(e.pushers, req.Seq)
	e.pushes++
	if e.pushes == s.workers {
		wake = append(scratch.wake[:0], e.parked...)
		scratch.wake = wake
		clear(e.parked)
		e.parked = e.parked[:0]
		e.result = sh.encodeEntry(e)
		e.result.refs += len(wake) // one per woken puller, dropped after its write
		result = e.result
		e.sum = nil
	}
	sh.mu.Unlock()
	return pushAck(req), wake, result
}

// encodeEntry makes a completed aggregate's wire form a free record,
// referenced once by the entry: the sum itself under the identity codec,
// else the sum encoded under the entry's codec. Caller holds sh.mu.
func (sh *shard) encodeEntry(e *entry) *agg {
	a := recycle.Take(&sh.aggFree)
	a.refs = 1
	if raw, ok := compress.RawBytes(e.sum[:cap(e.sum)]); ok && e.codec == 0 {
		a.payload, a.codec, a.orig = raw[:4*e.n], 0, 0
		return a
	}
	c, _ := compress.CodecByID(compress.CodecID(e.codec)) // validated at push time
	if e.topk > 0 {
		// Re-sparsify to the same per-worker count the pushes carried.
		c, _ = compress.TopKCodecCount(int(e.topk))
	}
	a.payload, a.codec, a.orig = wire.AppendFloats(slices.Grow(a.payload[:0], c.EncodedLen(e.n)), c, e.sum)
	sh.sums.Put(e.sum)
	return a
}

// wake answers every pull in parked with a, each on its puller's
// connection under the write deadline; a nil a means the server closed. A
// failed write drops that puller's connection, not the caller's.
func (s *Server) wake(parked []parkedPull, a *agg) {
	for _, p := range parked {
		s.inst.parkedPulls.Dec()
		p.sc.answer(p.h, a)
	}
}

// resolvePull resolves one pull from sc to exactly one of: a ready
// payload, parked on its entry, or an error response. A parked pull is
// recorded under the shard lock and answered exactly once, by the
// completing push or by Close. A payload holds a reference, dropped by
// countPullServed or, if the write failed, by answer.
func (s *Server) resolvePull(req message, sc *srvConn) (result *agg, parked bool, errResp *message) {
	s.inst.pulls.Inc()
	sh := s.shard(req.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.closing.Load() {
		m := s.rejectMsg(req, errServerClosed)
		return nil, false, &m
	}
	k := entryKey{req.Key, req.Iter}
	e, ok := sh.entries[k]
	if ok && e.pushes >= s.workers {
		e.result.refs++
		return e.result, false, nil // set by the push that completed it
	}
	if !ok {
		// No live entry. A retried pull whose aggregate was already served
		// and reclaimed (response lost on the wire) must not recreate an
		// empty entry — it would park until a push that will never come.
		// The key's last reclaimed aggregate re-answers a retry of its
		// iteration; a pull for an older one fails fast with OpErr.
		if d, ok := sh.done[k.key]; ok && k.iter == d.iter {
			s.inst.replayedPulls.Inc()
			d.a.refs++
			return d.a, false, nil
		} else if ok && k.iter < d.iter {
			s.inst.lostPulls.Inc()
			m := s.rejectMsg(req, errAggregateReclaimed)
			return nil, false, &m
		}
		// Genuinely early pull (pulls may legitimately arrive before
		// pushes): create the entry and park on it.
		e = sh.newEntry(k)
		s.inst.entries.Add(1)
	}
	e.parked = append(e.parked, parkedPull{sc, req.Header})
	s.inst.parkedPulls.Inc()
	return nil, true, nil
}

// countPullServed performs the post-write pull bookkeeping: dropping the
// pull's reference to its response a, counting each client served once,
// and entry reclamation once every worker has been served, which moves the
// entry's reference into its key's done slot so a retried pull whose
// response was lost on the wire is re-answered. The slot keeps the later
// iteration and drops the other one's reference: an entry can be reclaimed
// after its key's next iteration, since its puller may read the response
// and move on before the goroutine that wrote it gets here, and such an
// entry is already older than any retry can ask for.
//
// It runs after the response write, never before: a response lost on the
// wire must leave the entry live for the client's retry. So an entry is
// reclaimed after its last pull's response is written, and a client that
// has just read that response may still see the entry counted until the
// serving goroutine gets here.
func (s *Server) countPullServed(req message, a *agg) {
	sh := s.shard(req.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.unref(a)
	k := entryKey{req.Key, req.Iter}
	e, ok := sh.entries[k]
	if !ok {
		return
	}
	if listed(e.pullers, req.Seq) {
		s.inst.dedupHits.Inc()
		return // retried pull: already counted
	}
	e.pullers = list(e.pullers, req.Seq)
	e.served++
	if e.served >= s.workers {
		delete(sh.entries, k)
		s.inst.entries.Add(-1)
		result := e.result
		sh.free(e)
		d, ok := sh.done[k.key]
		if ok && d.iter > k.iter {
			sh.unref(result)
			return
		}
		if ok {
			sh.unref(d.a)
		}
		sh.done[k.key] = reclaimed{k.iter, result}
	}
}

// newEntry makes a fresh entry k's, from the free list if it has one.
// Caller holds sh.mu.
func (sh *shard) newEntry(k entryKey) *entry {
	e := recycle.Take(&sh.entryFree)
	sh.entries[k] = e
	return e
}

// free recycles a reclaimed entry, reset but for its lists' capacity.
// Caller holds sh.mu.
func (sh *shard) free(e *entry) {
	clear(e.parked)
	*e = entry{pushers: e.pushers[:0], pullers: e.pullers[:0], parked: e.parked[:0]}
	sh.entryFree.Put(e)
}

// Outstanding returns the number of live aggregation entries (leak check).
// An entry is reclaimed after its last pull's response is written (see
// countPullServed), so right after a Pull returns the count may still
// include that entry for a moment; it is exact once Close has returned.
func (s *Server) Outstanding() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Goroutines returns the server's current goroutine count: the accept loop
// and one per live connection. A parked pull is a record, not a goroutine.
func (s *Server) Goroutines() int64 { return s.goroutines.Load() }

// Close stops the listener, fails every parked pull, closes open
// connections, and waits for the serve goroutines. Workers blocked in Pull
// receive an error instead of hanging forever — the graceful half of the
// failure story; the client-side retry/backoff is the other half. Each
// failure is written under the write deadline, so a puller that stopped
// reading holds Close for at most the write timeout.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.closing.Store(true)
	ln := s.ln
	scs := make([]*srvConn, 0, len(s.conns))
	for _, sc := range s.conns {
		scs = append(scs, sc)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// Fail parked pulls: a nil aggregate answers each with the server
	// closed. closing is already set, so no pull can park after this sweep.
	var parked []parkedPull
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			parked = append(parked, e.parked...)
			e.parked = nil
		}
		sh.mu.Unlock()
	}
	s.wake(parked, nil)
	// Unblock handlers stuck mid-frame or mid-write and sweep idle
	// connections.
	for _, sc := range scs {
		sc.close()
	}
	s.wg.Wait()
	return err
}
