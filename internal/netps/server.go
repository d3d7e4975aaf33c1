package netps

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/ps"
)

// errServerClosed is the error text sent to pull waiters failed by Close.
const errServerClosed = "server closed"

// errAggregateReclaimed is the error text answering a retried pull whose
// aggregate was reclaimed and has also aged out of the completed log: the
// data is gone, so the client must surface the error to its retry budget
// instead of waiting for pushes that will never come.
const errAggregateReclaimed = "aggregate reclaimed"

// DefaultDedupCap bounds the per-client push-dedup window: how many recent
// request Seqs the server remembers per client. Credit bounds how many
// requests a worker can have outstanding, so a window of a few thousand is
// far beyond any replay horizon while keeping memory O(clients · cap)
// instead of growing without bound across long runs and reconnects.
const DefaultDedupCap = 4096

// DefaultDedupClients bounds how many distinct client identities each
// shard's dedup table tracks; least-recently-active clients are evicted
// first. Reconnecting workers mint fresh client IDs, so without this bound
// a long-lived server would accrete one window per client generation.
const DefaultDedupClients = 256

// DefaultShards is the number of independent lock domains the (key, iter)
// entry space and the dedup tables are partitioned across. Keys map to
// shards by ps.KeyHash — the same stable FNV-1a the hash-ring assigner
// uses to place keys across servers — so a replayed push always lands in
// the shard that remembers its Seq.
const DefaultShards = 16

// DefaultPoolSize is the handler pool size: how many goroutines serve all
// connections together. With the connection multiplexer, a thousand idle
// clients cost zero goroutines between requests; the pool bounds how many
// requests are decoded/processed concurrently.
const DefaultPoolSize = 16

// DefaultCompletedBytes is the total byte budget (across shards) for the
// completed-aggregate log's payload tier: recently reclaimed aggregates
// kept around so a retried pull whose response was lost on the wire is
// re-answered instead of hanging on a recreated empty entry.
const DefaultCompletedBytes = 32 << 20

// DefaultCompletedKeys is the total size (across shards) of the completed
// log's identity tier: (key, iter) pairs remembered as completed even
// after their payload is evicted, so very late pull retries fail fast with
// OpErr instead of blocking forever.
const DefaultCompletedKeys = 32768

// DefaultServerReadTimeout bounds how long a pool worker may block reading
// the remainder of a frame the multiplexer reported readable — a slow or
// stalled peer mid-frame ties up at most one worker for this long. Idle
// connections carry no deadline: they sit in the multiplexer, not in a
// worker.
const DefaultServerReadTimeout = 30 * time.Second

// DefaultServerWriteTimeout bounds each response write, so a peer that
// stops draining its socket cannot wedge a pool worker (or Close) forever.
const DefaultServerWriteTimeout = 15 * time.Second

// workQueueCap is the handler pool's ready-connection queue capacity. A
// connection occupies at most one slot (oneshot multiplexer arming plus
// parked-pull resumption are mutually exclusive), so the queue only
// backpressures beyond this many simultaneous connections.
const workQueueCap = 16384

// Server is a single parameter-server process: it sums fp32 payloads
// pushed by Workers distinct workers per (key, iteration) and answers
// pulls once every worker has pushed. Deploy one Server per PS rank and
// spread keys across them, exactly like the simulated cluster.
//
// Internally the server is sharded: the (key, iter) entry space and the
// per-client dedup tables are partitioned across independent lock domains
// by ps.KeyHash, so requests for different keys do not contend on one
// global mutex. Connections are served by a bounded handler pool fed by a
// connection multiplexer (epoll on Linux): serving a thousand clients
// costs about pool-size goroutines, not a thousand. A pull that must wait
// for aggregation parks as a waiter continuation — the completing push's
// worker writes the response — so waiting pulls never occupy pool workers.
//
// The server is hardened for the live path: application errors are
// answered with OpErr instead of dropping the connection, replayed pushes
// (same request Seq) are acknowledged without double-summing, retried
// pulls arriving after their aggregate was reclaimed are re-answered from
// a bounded completed log (or failed fast once it ages out), and Close
// fails every blocked pull waiter and open connection instead of leaking
// them — a crashed or drained shard surfaces as an error at the worker,
// never as a hang.
type Server struct {
	workers        int
	shardCount     int
	poolSize       int
	dedupCap       int
	dedupClients   int
	completedBytes int
	completedKeys  int
	readTimeout    time.Duration
	writeTimeout   time.Duration
	inst           serverInstruments

	shards []*shard

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*srvConn
	closed bool

	// closing is the lock-free mirror of closed, re-checked under each
	// shard lock: Close sets it before sweeping the shards for waiters, so
	// any request that parks a waiter after the sweep observes it and is
	// rejected instead of leaking.
	closing atomic.Bool

	mux        serveMux
	started    bool
	work       chan *srvConn
	workMu     sync.RWMutex
	workClosed bool

	// acceptWG covers the accept loop and any fallback per-connection
	// goroutines; workerWG covers the handler pool.
	acceptWG   sync.WaitGroup
	workerWG   sync.WaitGroup
	goroutines atomic.Int64
}

// serveMux feeds ready connections to the server. The Linux build uses an
// epoll connection multiplexer in front of the bounded handler pool; other
// platforms fall back to one blocking goroutine per connection.
type serveMux interface {
	// register starts serving sc (epoll arm, or fallback goroutine).
	register(sc *srvConn) error
	// rearm re-arms a oneshot-disarmed connection after its worker ran dry.
	rearm(sc *srvConn)
	// remove deregisters a closing connection (before its fd is released).
	remove(sc *srvConn)
	// stop terminates the poller and waits for it.
	stop()
	// needPool reports whether this multiplexer dispatches to the pool.
	needPool() bool
}

// shard is one lock domain: a partition of the entry space, the dedup
// tables for pushes landing in it, and the completed-aggregate log for
// entries reclaimed from it. A key's pushes, pulls, and replays all hash
// to the same shard, so exactly-once summing needs only this one lock.
type shard struct {
	mu      sync.Mutex
	entries map[entryKey]*entry
	// dedup holds one bounded window of recently seen push Seqs per client
	// (the high 32 bits of every Seq identify the client). Client Seqs are
	// monotonic, so FIFO eviction within a window prunes the lowest live
	// Seqs first — watermark semantics with an LRU bound.
	dedup    map[uint32]*seqWindow
	dedupUse uint64 // logical clock for client-window LRU eviction
	// seqs is the running total of remembered Seqs across this shard's
	// windows, maintained on add/evict so the dedup-size gauge costs O(1)
	// per push instead of a full table rescan.
	seqs      int
	completed completedLog
}

type entryKey struct {
	key  string
	iter uint32
}

type entry struct {
	sum    []float32
	pushes int
	// codec is the wire codec all of this entry's pushes arrived under
	// (fixed by the first push; mixed-codec pushes to one key are
	// rejected). Pull responses re-encode the aggregate with it.
	codec uint8
	// topk is the per-worker element count of top-k pushes (from the first
	// push's payload header), so the aggregate is re-sparsified to the same
	// count; 0 for other codecs.
	topk uint32
	// encoded caches the wire serialization of sum (under codec), computed
	// once when aggregation completes (sum is frozen from then on: overflow
	// pushes are rejected). Every pull response shares this one buffer —
	// responses only ever read it — so serving W workers costs one
	// marshal total instead of one per pull.
	encoded []byte
	// pullSeen records which logical pulls were already counted as served,
	// so a retried pull is re-answered without double-counting toward
	// entry reclamation. Bounded by the entry's own lifecycle: the entry
	// is reclaimed once every worker's pull has been served.
	pullSeen map[uint64]struct{}
	waiters  []pullWaiter
	served   int
}

// agg is a completed aggregate in wire form: the encoded payload plus the
// codec envelope fields (codec id, original byte length) every pull
// response must echo so the client can decode. codec 0 leaves orig 0 —
// byte-identical to pre-codec responses.
type agg struct {
	payload []byte
	codec   uint8
	orig    uint32
}

// pullWaiter is a parked pull continuation. fulfill is called exactly
// once, outside any shard lock, with the completed aggregate; a nil
// payload means the server closed.
type pullWaiter interface {
	fulfill(a agg)
}

// chanWaiter delivers the aggregate to a goroutine blocked on a channel —
// the blocking serve path and the in-package benchmarks.
type chanWaiter struct {
	s  *Server
	ch chan agg
}

func (w chanWaiter) fulfill(a agg) {
	w.s.inst.parkedPulls.Dec()
	w.ch <- a
}

// connWaiter resumes a connection parked on a singleton pull: it writes
// the response, does the post-write served bookkeeping, and hands the
// connection back to the serve loop — the pull waited without occupying
// a pool worker.
type connWaiter struct {
	sc  *srvConn
	req message
}

func (w connWaiter) fulfill(a agg) {
	s := w.sc.s
	s.inst.parkedPulls.Dec()
	if a.payload == nil {
		// Server closing: answer the error; Close is about to close the
		// connection, so it is not handed back to the pool.
		w.sc.write(s.rejectMsg(w.req, errServerClosed)) //nolint:errcheck // best-effort during Close
		return
	}
	if err := w.sc.write(pullResp(w.req, a)); err != nil {
		return
	}
	s.countPullServed(w.req)
	s.resume(w.sc)
}

// batchPending tracks one OpBatch frame with sub-pulls parked on
// aggregation. remaining starts at one sentinel held by the handler while
// it walks the batch, plus one per parked sub-pull; whoever drops it to
// zero writes the combined response. The sentinel guarantees the batch
// cannot finish while the handler is still filling resps, and the atomic
// decrements order every resps[i] write before the finishing read.
type batchPending struct {
	sc        *srvConn
	req       message
	subs      []message
	resps     []message
	remaining atomic.Int64
}

// batchSubWaiter parks one sub-pull of a pending batch.
type batchSubWaiter struct {
	bp  *batchPending
	idx int
}

func (w batchSubWaiter) fulfill(a agg) {
	s := w.bp.sc.s
	s.inst.parkedPulls.Dec()
	if a.payload == nil {
		w.bp.resps[w.idx] = s.rejectMsg(w.bp.subs[w.idx], errServerClosed)
	} else {
		w.bp.resps[w.idx] = pullResp(w.bp.subs[w.idx], a)
	}
	if w.bp.remaining.Add(-1) == 0 {
		if w.bp.writeAndCount() == nil {
			s.resume(w.bp.sc)
		}
	}
}

// writeAndCount encodes and writes the combined batch response, then
// counts the served sub-pulls — same post-write rule as singleton pulls.
func (bp *batchPending) writeAndCount() error {
	s := bp.sc.s
	payload, err := encodeBatch(bp.resps)
	if err != nil {
		bp.sc.close()
		return err
	}
	if err := bp.sc.write(message{Op: OpBatch, Iter: bp.req.Iter, Seq: bp.req.Seq, Key: bp.req.Key, Payload: payload}); err != nil {
		return err
	}
	for i, sub := range bp.subs {
		if sub.Op == OpPull && bp.resps[i].Op == OpPull {
			s.countPullServed(sub)
		}
	}
	return nil
}

// seqWindow is a bounded set of recently seen Seqs: a hash set for O(1)
// membership plus a FIFO ring recording insertion order for eviction.
type seqWindow struct {
	seen    map[uint64]struct{}
	order   []uint64
	head    int
	lastUse uint64
}

func (w *seqWindow) has(seq uint64) bool {
	_, ok := w.seen[seq]
	return ok
}

// add inserts seq, evicting the oldest remembered Seq when the window is
// at capacity. Reports whether an eviction happened.
func (w *seqWindow) add(seq uint64, capacity int) (evicted bool) {
	if w.has(seq) {
		return false
	}
	if len(w.order) < capacity {
		w.order = append(w.order, seq)
		w.seen[seq] = struct{}{}
		return false
	}
	old := w.order[w.head]
	delete(w.seen, old)
	w.order[w.head] = seq
	w.head = (w.head + 1) % capacity
	w.seen[seq] = struct{}{}
	return true
}

// serverInstruments are the server's resolved metric handles; all nil
// (no-ops) unless WithServerMetrics attached a registry.
type serverInstruments struct {
	pushes         *metrics.Counter
	pulls          *metrics.Counter
	batches        *metrics.Counter
	batchedMsgs    *metrics.Counter
	dedupHits      *metrics.Counter
	dedupEvictions *metrics.Counter
	rejects        *metrics.Counter
	replayedPulls  *metrics.Counter
	lostPulls      *metrics.Counter
	entries        *metrics.Gauge
	conns          *metrics.Gauge
	dedupSize      *metrics.Gauge
	shardsGauge    *metrics.Gauge
	poolWorkers    *metrics.Gauge
	poolDepth      *metrics.Gauge
	parkedPulls    *metrics.Gauge
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerMetrics instruments the server against the given registry:
// push/pull counters, dedup hit and eviction counters, rejection and
// replayed/lost-pull counters, and gauges for live entries, open
// connections, dedup table size, shard count, handler-pool size and
// depth, and parked pulls.
func WithServerMetrics(reg *metrics.Registry) ServerOption {
	return func(s *Server) {
		if reg == nil {
			s.inst = serverInstruments{}
			return
		}
		s.inst = serverInstruments{
			pushes:         reg.Counter("netps_server_pushes_total"),
			pulls:          reg.Counter("netps_server_pulls_total"),
			batches:        reg.Counter("netps_server_batches_total"),
			batchedMsgs:    reg.Counter("netps_server_batched_msgs_total"),
			dedupHits:      reg.Counter("netps_server_dedup_hits_total"),
			dedupEvictions: reg.Counter("netps_server_dedup_evictions_total"),
			rejects:        reg.Counter("netps_server_rejects_total"),
			replayedPulls:  reg.Counter("netps_server_replayed_pulls_total"),
			lostPulls:      reg.Counter("netps_server_lost_pulls_total"),
			entries:        reg.Gauge("netps_server_entries"),
			conns:          reg.Gauge("netps_server_conns"),
			dedupSize:      reg.Gauge("netps_server_dedup_seqs"),
			shardsGauge:    reg.Gauge("netps_server_shards"),
			poolWorkers:    reg.Gauge("netps_server_pool_workers"),
			poolDepth:      reg.Gauge("netps_server_pool_depth"),
			parkedPulls:    reg.Gauge("netps_server_parked_pulls"),
		}
	}
}

// WithDedupCap overrides the per-client push-dedup window size
// (DefaultDedupCap). Larger windows tolerate longer replay horizons;
// smaller windows bound memory tighter.
func WithDedupCap(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.dedupCap = n
		}
	}
}

// WithDedupClients overrides how many distinct client identities each
// shard's dedup table tracks (DefaultDedupClients); least-recently-active
// client windows are evicted whole.
func WithDedupClients(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.dedupClients = n
		}
	}
}

// WithShards overrides how many independent lock domains the entry space
// and dedup tables are partitioned across (DefaultShards). One shard
// reproduces the old single-mutex server.
func WithShards(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.shardCount = n
		}
	}
}

// WithHandlerPool overrides the handler pool size (DefaultPoolSize): how
// many goroutines serve all multiplexed connections together.
func WithHandlerPool(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.poolSize = n
		}
	}
}

// WithCompletedBytes overrides the completed-aggregate log's total payload
// byte budget (DefaultCompletedBytes). Smaller budgets re-answer a
// narrower window of retried pulls before falling back to OpErr.
func WithCompletedBytes(n int) ServerOption {
	return func(s *Server) {
		if n >= 0 {
			s.completedBytes = n
		}
	}
}

// WithCompletedKeys overrides the completed log's identity-tier size
// (DefaultCompletedKeys): how many reclaimed (key, iter) pairs are
// remembered as completed after their payload ages out.
func WithCompletedKeys(n int) ServerOption {
	return func(s *Server) {
		if n >= 0 {
			s.completedKeys = n
		}
	}
}

// WithServerTimeouts overrides the per-frame read deadline applied while a
// pool worker drains a readable connection, and the per-response write
// deadline (DefaultServerReadTimeout / DefaultServerWriteTimeout).
// Zero disables the corresponding deadline.
func WithServerTimeouts(read, write time.Duration) ServerOption {
	return func(s *Server) {
		s.readTimeout, s.writeTimeout = read, write
	}
}

// NewServer creates a server expecting the given number of workers per key
// per iteration.
func NewServer(workers int, opts ...ServerOption) (*Server, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("netps: need at least one worker, got %d", workers)
	}
	s := &Server{
		workers:        workers,
		shardCount:     DefaultShards,
		poolSize:       DefaultPoolSize,
		dedupCap:       DefaultDedupCap,
		dedupClients:   DefaultDedupClients,
		completedBytes: DefaultCompletedBytes,
		completedKeys:  DefaultCompletedKeys,
		readTimeout:    DefaultServerReadTimeout,
		writeTimeout:   DefaultServerWriteTimeout,
		conns:          make(map[net.Conn]*srvConn),
	}
	for _, o := range opts {
		o(s)
	}
	s.shards = make([]*shard, s.shardCount)
	perShardBytes := s.completedBytes / s.shardCount
	perShardKeys := s.completedKeys / s.shardCount
	if s.completedKeys > 0 && perShardKeys == 0 {
		perShardKeys = 1
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			entries:   make(map[entryKey]*entry),
			dedup:     make(map[uint32]*seqWindow),
			completed: newCompletedLog(perShardBytes, perShardKeys),
		}
	}
	s.inst.shardsGauge.Set(int64(s.shardCount))
	s.inst.poolWorkers.Set(int64(s.poolSize))
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

// dupPush reports whether seq was already summed. Caller holds sh.mu.
func (sh *shard) dupPush(seq uint64) bool {
	w, ok := sh.dedup[uint32(seq>>32)]
	if !ok {
		return false
	}
	sh.dedupUse++
	w.lastUse = sh.dedupUse
	return w.has(seq)
}

// recordPush remembers seq for replay deduplication, bounding both the
// per-client window and the number of tracked clients, and maintains the
// shard's running Seq count so the dedup-size gauge is O(1) per push.
// Caller holds sh.mu.
func (sh *shard) recordPush(s *Server, seq uint64) {
	client := uint32(seq >> 32)
	w, ok := sh.dedup[client]
	if !ok {
		if len(sh.dedup) >= s.dedupClients {
			// Evict the least-recently-active client's window whole: its
			// requests are the least likely to still be replayed.
			var lruID uint32
			var lru *seqWindow
			for id, cand := range sh.dedup {
				if lru == nil || cand.lastUse < lru.lastUse {
					lruID, lru = id, cand
				}
			}
			delete(sh.dedup, lruID)
			sh.seqs -= len(lru.seen)
			s.inst.dedupSize.Add(-int64(len(lru.seen)))
			s.inst.dedupEvictions.Add(uint64(len(lru.order)))
		}
		w = &seqWindow{seen: make(map[uint64]struct{})}
		sh.dedup[client] = w
	}
	sh.dedupUse++
	w.lastUse = sh.dedupUse
	if w.add(seq, s.dedupCap) {
		// One Seq evicted, one inserted: the running count is unchanged.
		s.inst.dedupEvictions.Inc()
	} else {
		sh.seqs++
		s.inst.dedupSize.Add(1)
	}
}

// DedupSize returns the total number of remembered push Seqs across all
// shards — bounded by shards·clients·cap regardless of run length.
func (s *Server) DedupSize() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.seqs
		sh.mu.Unlock()
	}
	return n
}

// Listen binds to addr (e.g. "127.0.0.1:0") and serves connections until
// Close. It returns the bound address.
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
	s.ln = ln
	if !s.started {
		mux, err := newServeMux(s)
		if err != nil {
			s.mu.Unlock()
			ln.Close()
			return "", err
		}
		s.mux = mux
		s.started = true
		if mux.needPool() {
			s.work = make(chan *srvConn, workQueueCap)
			for i := 0; i < s.poolSize; i++ {
				s.workerWG.Add(1)
				s.goroutines.Add(1)
				go s.worker()
			}
		}
	}
	s.mu.Unlock()
	s.acceptWG.Add(1)
	s.goroutines.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.acceptWG.Done()
	defer s.goroutines.Add(-1)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		sc := &srvConn{s: s, conn: conn, br: bufio.NewReaderSize(conn, 4096), fd: -1}
		s.conns[conn] = sc
		s.inst.conns.Set(int64(len(s.conns)))
		s.mu.Unlock()
		if err := s.mux.register(sc); err != nil {
			sc.close()
		}
	}
}

// srvConn is one accepted connection's server-side state: the buffered
// reader pool workers decode frames from, the write lock serializing
// responses between workers and waiter continuations, and the multiplexer
// registration.
type srvConn struct {
	s      *Server
	conn   net.Conn
	br     *bufio.Reader
	wmu    sync.Mutex
	closed atomic.Bool
	fd     int    // raw fd while epoll-registered; -1 otherwise
	token  uint64 // multiplexer registration token; 0 when unregistered
}

// write frames and writes one response under the server's write deadline,
// using the scatter-gather path (one writev for header + payload). The
// connection is closed on write failure — framing may be torn mid-frame.
func (sc *srvConn) write(m message) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if sc.closed.Load() {
		return errors.New("netps: connection closed")
	}
	if d := sc.s.writeTimeout; d > 0 {
		sc.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := writeMessageVec(sc.conn, m); err != nil {
		sc.close()
		return err
	}
	return nil
}

// close tears the connection down exactly once: multiplexer
// deregistration (while the fd is still valid), connection-table removal,
// then the socket itself.
func (sc *srvConn) close() {
	if !sc.closed.CompareAndSwap(false, true) {
		return
	}
	if sc.s.mux != nil {
		sc.s.mux.remove(sc)
	}
	sc.s.mu.Lock()
	delete(sc.s.conns, sc.conn)
	sc.s.inst.conns.Set(int64(len(sc.s.conns)))
	sc.s.mu.Unlock()
	sc.conn.Close()
}

// submit hands a ready connection to the handler pool. No-op once Close
// has shut the queue (the connection is being torn down anyway).
func (s *Server) submit(sc *srvConn) {
	s.workMu.RLock()
	if !s.workClosed && s.work != nil {
		s.work <- sc
	}
	s.workMu.RUnlock()
}

// resume returns a just-fulfilled parked connection to the serve loop.
// Bytes already decoded into the bufio reader are invisible to epoll, so
// those go straight to the pool; otherwise the multiplexer watches the
// socket — submitting an idle connection would park a pool worker inside
// a blocking read until the client's next request (or the read deadline),
// starving every other connection behind it.
func (s *Server) resume(sc *srvConn) {
	if sc.br.Buffered() > 0 {
		s.submit(sc)
		return
	}
	s.mux.rearm(sc)
}

// worker is one handler-pool goroutine: it serves whichever connections
// the multiplexer reports ready, one request batch at a time.
func (s *Server) worker() {
	defer s.workerWG.Done()
	defer s.goroutines.Add(-1)
	for sc := range s.work {
		s.inst.poolDepth.Set(int64(len(s.work)))
		s.runConn(sc)
	}
}

// runConn serves requests from sc until it parks on aggregation, dies, or
// its read buffer runs dry — then hands it back to the multiplexer.
func (s *Server) runConn(sc *srvConn) {
	for {
		switch s.handleConn(sc) {
		case connClosed, connParked:
			return
		case connOK:
			if sc.br.Buffered() > 0 {
				continue // pipelined request already decoded off the wire
			}
			s.mux.rearm(sc)
			return
		}
	}
}

// connAction is handleConn's verdict on a connection.
type connAction int

const (
	// connOK: the request was answered; the connection can be continued
	// or re-armed.
	connOK connAction = iota
	// connParked: a pull is waiting on aggregation and a waiter
	// continuation now owns the connection.
	connParked
	// connClosed: the connection died or was dropped.
	connClosed
)

// handleConn reads and serves exactly one request from sc. The read
// deadline bounds how long a slow peer mid-frame can occupy this worker.
func (s *Server) handleConn(sc *srvConn) connAction {
	if d := s.readTimeout; d > 0 {
		sc.conn.SetReadDeadline(time.Now().Add(d))
	}
	req, err := readMessage(sc.br)
	if err != nil {
		sc.close()
		return connClosed
	}
	switch req.Op {
	case OpPush:
		resp, wake, result := s.processPush(req)
		for _, w := range wake {
			w.fulfill(result)
		}
		if sc.write(resp) != nil {
			return connClosed
		}
		return connOK
	case OpPull:
		result, errResp, parked := s.resolvePull(req, func() pullWaiter {
			return connWaiter{sc: sc, req: req}
		})
		switch {
		case errResp != nil:
			if sc.write(*errResp) != nil {
				return connClosed
			}
			return connOK
		case parked:
			return connParked
		default:
			if sc.write(pullResp(req, result)) != nil {
				return connClosed
			}
			s.countPullServed(req)
			return connOK
		}
	case OpBatch:
		return s.handleBatchConn(sc, req)
	default:
		// Protocol error: tell the peer, then drop the connection —
		// framing may be out of sync.
		sc.write(s.rejectMsg(req, "unknown op")) //nolint:errcheck // dropping anyway
		sc.close()
		return connClosed
	}
}

// handleBatchConn answers a coalesced OpBatch frame on the pool path:
// every sub-request runs through the same push/pull logic as singletons
// (including per-sub-push replay deduplication), then exactly one OpBatch
// response carrying the framed sub-responses is written. Sub-pulls blocked
// on aggregation park the whole batch as waiter continuations instead of
// blocking this worker.
func (s *Server) handleBatchConn(sc *srvConn, req message) connAction {
	subs, err := decodeBatch(req.Payload)
	if err != nil {
		// The envelope frame was well-formed, so the stream stays in sync.
		if sc.write(s.rejectMsg(req, "malformed batch: "+err.Error())) != nil {
			return connClosed
		}
		return connOK
	}
	s.inst.batches.Inc()
	s.inst.batchedMsgs.Add(uint64(len(subs)))
	bp := &batchPending{sc: sc, req: req, subs: subs, resps: make([]message, len(subs))}
	bp.remaining.Store(1) // handler sentinel: the batch cannot finish mid-walk
	for i, sub := range subs {
		switch sub.Op {
		case OpPush:
			resp, wake, result := s.processPush(sub)
			bp.resps[i] = resp
			for _, w := range wake {
				// May fulfill a sub-pull of this very batch parked earlier
				// in the walk; the sentinel keeps the batch open.
				w.fulfill(result)
			}
		case OpPull:
			result, errResp, parked := s.resolvePull(sub, func() pullWaiter {
				bp.remaining.Add(1)
				return batchSubWaiter{bp: bp, idx: i}
			})
			switch {
			case errResp != nil:
				bp.resps[i] = *errResp
			case parked:
				// resps[i] is set by the waiter when it fulfills.
			default:
				bp.resps[i] = pullResp(sub, result)
			}
		default:
			// Includes nested OpBatch: one level of coalescing only.
			bp.resps[i] = s.rejectMsg(sub, "unbatchable op")
		}
	}
	if bp.remaining.Add(-1) == 0 {
		// Nothing still parked: answer inline and keep the connection.
		if bp.writeAndCount() != nil {
			return connClosed
		}
		return connOK
	}
	return connParked
}

// writeErr answers a request with an OpErr response carrying text.
func writeErr(w net.Conn, req message, text string) error {
	return writeMessage(w, message{Op: OpErr, Iter: req.Iter, Seq: req.Seq, Key: req.Key, Payload: []byte(text)})
}

// rejectMsg builds an OpErr response and counts the rejection.
func (s *Server) rejectMsg(req message, text string) message {
	s.inst.rejects.Inc()
	return message{Op: OpErr, Iter: req.Iter, Seq: req.Seq, Key: req.Key, Payload: []byte(text)}
}

// pushAck is the empty-payload acknowledgement echoing a push's identity.
func pushAck(req message) message {
	return message{Op: OpPush, Iter: req.Iter, Seq: req.Seq, Key: req.Key}
}

// pullResp frames a completed aggregate as a pull response, echoing the
// codec envelope fields so the client can decode.
func pullResp(req message, a agg) message {
	return message{Op: OpPull, Codec: a.codec, Iter: req.Iter, Seq: req.Seq, Orig: a.orig, Key: req.Key, Payload: a.payload}
}

// processPush applies one push and returns its response (ack or OpErr)
// plus any pull waiters to wake with the completed aggregate. Shared by
// the pooled, blocking, and batch paths; the caller fulfills the waiters
// (outside the shard lock) and writes the response.
func (s *Server) processPush(req message) (resp message, wake []pullWaiter, result agg) {
	s.inst.pushes.Inc()
	if len(req.Payload) == 0 {
		// An empty push would freeze the entry's shape at length zero and
		// poison every later well-formed push with a size mismatch.
		return s.rejectMsg(req, "empty push payload"), nil, agg{}
	}
	// Decode codec-bearing payloads before taking the shard lock; the
	// aggregate is always summed in fp32.
	var vals []float32 // decoded view; nil on the identity fast path
	var topk uint32
	n := len(req.Payload) / 4
	if req.Codec != 0 {
		c, err := compress.CodecByID(compress.CodecID(req.Codec))
		if err != nil {
			return s.rejectMsg(req, err.Error()), nil, agg{}
		}
		if req.Orig == 0 || req.Orig%4 != 0 || req.Orig > maxMessage {
			return s.rejectMsg(req, fmt.Sprintf("bad original length %d for codec push", req.Orig)), nil, agg{}
		}
		n = int(req.Orig / 4)
		if compress.CodecID(req.Codec) == compress.CodecTopK {
			if topk = binary.BigEndian.Uint32(req.Payload); topk == 0 {
				return s.rejectMsg(req, "empty top-k push"), nil, agg{}
			}
		}
		dp := decPool.Get().(*[]float32)
		defer decPool.Put(dp)
		vals, err = c.AppendDecode((*dp)[:0], req.Payload, n)
		if err != nil {
			return s.rejectMsg(req, "undecodable push: "+err.Error()), nil, agg{}
		}
		*dp = vals[:0]
	} else if len(req.Payload)%4 != 0 {
		// The frame itself was well-formed, so the stream stays in sync:
		// reject the request but keep the connection.
		return s.rejectMsg(req, "push payload not a float32 vector"), nil, agg{}
	}
	sh := s.shard(req.Key)
	sh.mu.Lock()
	if s.closing.Load() {
		sh.mu.Unlock()
		return s.rejectMsg(req, errServerClosed), nil, agg{}
	}
	if req.Seq != 0 && sh.dupPush(req.Seq) {
		// Replayed push (client retried after a lost ack): acknowledge
		// without summing again. The dedup window lives per client, not
		// per entry, so a replay arriving after its entry was reclaimed is
		// still recognized instead of corrupting a fresh aggregate.
		sh.mu.Unlock()
		s.inst.dedupHits.Inc()
		return pushAck(req), nil, agg{}
	}
	k := entryKey{req.Key, req.Iter}
	e, ok := sh.entries[k]
	if !ok {
		e = &entry{}
		sh.entries[k] = e
		s.inst.entries.Add(1)
	}
	if e.sum == nil {
		e.sum = make([]float32, n)
		e.codec = req.Codec
		e.topk = topk
	}
	if len(e.sum) != n {
		sh.mu.Unlock()
		return s.rejectMsg(req, fmt.Sprintf("push size mismatch for %s", req.Key)), nil, agg{}
	}
	if e.codec != req.Codec {
		// Mixed codecs on one (key, iter) would make the re-encoded
		// aggregate wrong for at least one worker's decoder.
		sh.mu.Unlock()
		return s.rejectMsg(req, fmt.Sprintf("push codec mismatch for %s", req.Key)), nil, agg{}
	}
	if e.pushes >= s.workers {
		// More pushes than workers for one (key, iter): a protocol misuse
		// that would corrupt the aggregate other workers already pulled.
		sh.mu.Unlock()
		return s.rejectMsg(req, fmt.Sprintf("push overflow for %s (all %d workers already pushed)", req.Key, s.workers)), nil, agg{}
	}
	if vals != nil {
		for i := range e.sum {
			e.sum[i] += vals[i]
		}
	} else {
		for i := range e.sum {
			bits := binary.BigEndian.Uint32(req.Payload[i*4:])
			e.sum[i] += math.Float32frombits(bits)
		}
	}
	if req.Seq != 0 {
		sh.recordPush(s, req.Seq)
	}
	e.pushes++
	if e.pushes == s.workers {
		wake = e.waiters
		e.waiters = nil
		e.encoded = encodeEntry(e)
		result = e.agg()
	}
	sh.mu.Unlock()
	return pushAck(req), wake, result
}

// decPool recycles processPush's codec-decode scratch so codec-bearing
// pushes stay allocation-free in steady state.
var decPool = sync.Pool{New: func() any { return new([]float32) }}

// encodeEntry serializes a completed aggregate under the entry's codec.
func encodeEntry(e *entry) []byte {
	id := compress.CodecID(e.codec)
	if id == compress.CodecIdentity {
		return encode(e.sum)
	}
	var c compress.Codec
	if id == compress.CodecTopK {
		// Re-sparsify to the same per-worker count the pushes carried.
		c, _ = compress.TopKCodecCount(int(e.topk))
	} else {
		c, _ = compress.CodecByID(id) // id was validated at push time
	}
	return c.AppendEncode(make([]byte, 0, c.EncodedLen(len(e.sum))), e.sum)
}

// agg returns the entry's completed aggregate in wire form. Callers hold
// the shard lock and aggregation must be complete (encoded != nil).
func (e *entry) agg() agg {
	if e.codec == 0 {
		return agg{payload: e.encoded}
	}
	return agg{payload: e.encoded, codec: e.codec, orig: uint32(4 * len(e.sum))}
}

// resolvePull resolves one pull to exactly one of: a ready payload, an
// error response, or a parked waiter. The waiter is built by mkWaiter and
// registered under the shard lock; it is fulfilled outside it, by the
// completing push (or by Close, with a nil payload).
func (s *Server) resolvePull(req message, mkWaiter func() pullWaiter) (result agg, errResp *message, parked bool) {
	s.inst.pulls.Inc()
	sh := s.shard(req.Key)
	sh.mu.Lock()
	if s.closing.Load() {
		sh.mu.Unlock()
		m := s.rejectMsg(req, errServerClosed)
		return agg{}, &m, false
	}
	k := entryKey{req.Key, req.Iter}
	if e, ok := sh.entries[k]; ok {
		if e.pushes >= s.workers {
			if e.encoded == nil {
				e.encoded = encodeEntry(e)
			}
			result = e.agg()
			sh.mu.Unlock()
			return result, nil, false
		}
		e.waiters = append(e.waiters, mkWaiter())
		sh.mu.Unlock()
		s.inst.parkedPulls.Inc()
		return agg{}, nil, true
	}
	// No live entry. A retried pull whose aggregate was already served and
	// reclaimed (response lost on the wire) must not recreate an empty
	// entry — it would block until a push that will never come. The
	// completed log re-answers recent retries; older ones whose payload
	// aged out fail fast with OpErr.
	if p, ok := sh.completed.payload(k); ok {
		sh.mu.Unlock()
		s.inst.replayedPulls.Inc()
		return p, nil, false
	}
	if sh.completed.known(k) {
		sh.mu.Unlock()
		s.inst.lostPulls.Inc()
		m := s.rejectMsg(req, errAggregateReclaimed)
		return agg{}, &m, false
	}
	// Genuinely early pull (pulls may legitimately arrive before pushes):
	// create the entry and wait for aggregation.
	e := &entry{}
	sh.entries[k] = e
	s.inst.entries.Add(1)
	e.waiters = append(e.waiters, mkWaiter())
	sh.mu.Unlock()
	s.inst.parkedPulls.Inc()
	return agg{}, nil, true
}

// preparePull is the channel form of resolvePull, used by the blocking
// serve path and in-package benchmarks: exactly one of result, wait, or
// errResp is set, and a nil-payload receive on wait means the server
// closed.
func (s *Server) preparePull(req message) (result agg, wait chan agg, errResp *message) {
	var ch chan agg
	result, errResp, parked := s.resolvePull(req, func() pullWaiter {
		ch = make(chan agg, 1)
		return chanWaiter{s: s, ch: ch}
	})
	if parked {
		return agg{}, ch, nil
	}
	return result, nil, errResp
}

// serveBlocking is the portable per-connection serve loop used when no
// connection multiplexer is available (non-Linux builds, or connections
// without raw-socket access): one goroutine per connection, pulls
// blocking in-handler on a channel waiter — the pre-pool behavior, kept
// as a fallback.
func (s *Server) serveBlocking(sc *srvConn) {
	defer sc.close()
	for {
		req, err := readMessage(sc.br)
		if err != nil {
			return // EOF, broken peer, or malformed/oversized frame
		}
		switch req.Op {
		case OpPush:
			resp, wake, result := s.processPush(req)
			for _, w := range wake {
				w.fulfill(result)
			}
			if sc.write(resp) != nil {
				return
			}
		case OpPull:
			result, wait, errResp := s.preparePull(req)
			if errResp != nil {
				if sc.write(*errResp) != nil {
					return
				}
				continue
			}
			if wait != nil {
				if result = <-wait; result.payload == nil {
					// Woken by Close: fail the pull instead of hanging.
					if sc.write(s.rejectMsg(req, errServerClosed)) != nil {
						return
					}
					continue
				}
			}
			if sc.write(pullResp(req, result)) != nil {
				return
			}
			s.countPullServed(req)
		case OpBatch:
			if !s.serveBatchBlocking(sc, req) {
				return
			}
		default:
			sc.write(s.rejectMsg(req, "unknown op")) //nolint:errcheck // dropping anyway
			return
		}
	}
}

// serveBatchBlocking is the blocking-path batch handler: sub-pulls waiting
// on aggregation block this connection's goroutine, exactly like the
// pre-pool server. Reports whether the connection is still healthy.
func (s *Server) serveBatchBlocking(sc *srvConn, req message) bool {
	subs, err := decodeBatch(req.Payload)
	if err != nil {
		return sc.write(s.rejectMsg(req, "malformed batch: "+err.Error())) == nil
	}
	s.inst.batches.Inc()
	s.inst.batchedMsgs.Add(uint64(len(subs)))
	resps := make([]message, len(subs))
	waits := make([]chan agg, len(subs))
	for i, sub := range subs {
		switch sub.Op {
		case OpPush:
			resp, wake, result := s.processPush(sub)
			for _, w := range wake {
				w.fulfill(result)
			}
			resps[i] = resp
		case OpPull:
			result, wait, errResp := s.preparePull(sub)
			switch {
			case errResp != nil:
				resps[i] = *errResp
			case wait != nil:
				waits[i] = wait
			default:
				resps[i] = pullResp(sub, result)
			}
		default:
			resps[i] = s.rejectMsg(sub, "unbatchable op")
		}
	}
	for i, wait := range waits {
		if wait == nil {
			continue
		}
		if result := <-wait; result.payload == nil {
			resps[i] = s.rejectMsg(subs[i], errServerClosed)
		} else {
			resps[i] = pullResp(subs[i], result)
		}
	}
	payload, err := encodeBatch(resps)
	if err != nil {
		sc.close()
		return false
	}
	if sc.write(message{Op: OpBatch, Iter: req.Iter, Seq: req.Seq, Key: req.Key, Payload: payload}) != nil {
		return false
	}
	// Count served pulls only now that the combined response is on the
	// wire — same rule as the singleton path.
	for i, sub := range subs {
		if sub.Op == OpPull && resps[i].Op == OpPull {
			s.countPullServed(sub)
		}
	}
	return true
}

// spawnBlocking serves sc on a dedicated goroutine — the non-multiplexed
// fallback path.
func (s *Server) spawnBlocking(sc *srvConn) {
	s.acceptWG.Add(1)
	s.goroutines.Add(1)
	go func() {
		defer s.acceptWG.Done()
		defer s.goroutines.Add(-1)
		s.serveBlocking(sc)
	}()
}

// countPullServed performs the post-write pull bookkeeping: Seq-level
// retry dedup, the served count, and entry reclamation once every worker
// has been served. Reclaimed aggregates are remembered in the shard's
// completed log so a retried pull whose response was lost on the wire is
// re-answered instead of hanging.
func (s *Server) countPullServed(req message) {
	sh := s.shard(req.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	k := entryKey{req.Key, req.Iter}
	e, ok := sh.entries[k]
	if !ok {
		return
	}
	if req.Seq != 0 {
		if _, dup := e.pullSeen[req.Seq]; dup {
			s.inst.dedupHits.Inc()
			return // retried pull: already counted
		}
		if e.pullSeen == nil {
			e.pullSeen = make(map[uint64]struct{})
		}
		e.pullSeen[req.Seq] = struct{}{}
	}
	e.served++
	if e.served >= s.workers {
		delete(sh.entries, k)
		s.inst.entries.Add(-1)
		sh.completed.add(k, e.agg())
	}
}

// Outstanding returns the number of live aggregation entries (leak check).
func (s *Server) Outstanding() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Goroutines returns the server's current goroutine count — accept loops,
// the multiplexer poller, pool workers, and any fallback per-connection
// goroutines. This is the macro-benchmark's evidence that serving N
// clients costs about pool-size goroutines, not N.
func (s *Server) Goroutines() int64 { return s.goroutines.Load() }

// Close stops the listener, fails every blocked pull waiter, closes open
// connections, and drains the multiplexer and handler pool. Workers
// blocked in Pull receive an error instead of hanging forever — the
// graceful half of the failure story; the client-side retry/backoff is
// the other half.
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
	started := s.started
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// Fail blocked pull waiters: a nil payload tells each continuation or
	// channel receiver the server closed. closing is already set, so no
	// new waiter can park after this sweep.
	var wake []pullWaiter
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			wake = append(wake, e.waiters...)
			e.waiters = nil
		}
		sh.mu.Unlock()
	}
	for _, w := range wake {
		w.fulfill(agg{})
	}
	// Unblock handlers stuck mid-frame and sweep idle connections.
	for _, sc := range scs {
		sc.close()
	}
	if started {
		// Poller first (it may still be submitting), then shut the queue
		// and drain the pool, then any fallback goroutines.
		s.mux.stop()
		s.workMu.Lock()
		s.workClosed = true
		if s.work != nil {
			close(s.work)
		}
		s.workMu.Unlock()
		s.workerWG.Wait()
	}
	s.acceptWG.Wait()
	return err
}

// encode serializes a float32 vector big-endian.
func encode(v []float32) []byte {
	out := make([]byte, len(v)*4)
	for i, f := range v {
		binary.BigEndian.PutUint32(out[i*4:], math.Float32bits(f))
	}
	return out
}

// Decode parses a big-endian float32 vector payload.
func Decode(payload []byte) ([]float32, error) {
	if len(payload)%4 != 0 {
		return nil, errors.New("netps: payload not a float32 vector")
	}
	out := make([]float32, len(payload)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.BigEndian.Uint32(payload[i*4:]))
	}
	return out, nil
}

// Encode serializes a float32 vector for pushing.
func Encode(v []float32) []byte { return encode(v) }
