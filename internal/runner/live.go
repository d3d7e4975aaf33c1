// Live training harness: the same iteration structure the simulator
// models (backward pass emits gradients back-to-front, the next forward
// pass consumes them front-to-back), but over real sockets — netps
// parameter servers or the netar segmented ring — with a real
// core.AsyncScheduler deciding transmission order: each PS worker's own, and
// on the ring rank 0's for every peer (the paper's §5 master Core). This is
// where the paper's generality claim is measurable outside the simulator:
// one scheduler, two architectures, wall-clock iteration times.

package runner

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"bytescheduler/internal/autotune"
	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/netar"
	"bytescheduler/internal/netps"
	"bytescheduler/internal/tensor"
	"bytescheduler/internal/trace"
)

// LiveBackend selects the live transport architecture.
type LiveBackend int

const (
	// LiveBackendPS synchronizes gradients through a netps parameter
	// server (push + aggregate + pull).
	LiveBackendPS LiveBackend = iota
	// LiveBackendRing synchronizes gradients with the netar segmented
	// ring all-reduce.
	LiveBackendRing
)

// String returns the backend's flag spelling.
func (b LiveBackend) String() string {
	switch b {
	case LiveBackendPS:
		return "ps"
	case LiveBackendRing:
		return "ring"
	}
	return fmt.Sprintf("LiveBackend(%d)", int(b))
}

// ParseLiveBackend parses the -backend flag value.
func ParseLiveBackend(s string) (LiveBackend, error) {
	switch s {
	case "ps":
		return LiveBackendPS, nil
	case "ring":
		return LiveBackendRing, nil
	}
	return 0, fmt.Errorf("runner: unknown live backend %q (want ps or ring)", s)
}

// LiveConfig describes one live training run: in-process workers over
// loopback TCP, one scheduler per PS worker and one per ring, real
// wall-clock timing.
type LiveConfig struct {
	// Backend selects the transport (PS or ring all-reduce).
	Backend LiveBackend
	// Workers is the number of training workers (ring peers, or PS
	// clients against one aggregating server).
	Workers int
	// LayerBytes is each layer's gradient size in bytes, front (input
	// layer, highest priority) to back. Every size must be a positive
	// multiple of 4 (fp32).
	LayerBytes []int64
	// Policy is the communication scheduling policy. A serial FIFO
	// baseline (LiveFIFO) transmits whole tensors one at a time in
	// emission order — the vanilla framework's single comm queue.
	// PartitionUnit, if set, must be a multiple of 4.
	Policy core.Policy
	// Iterations and Warmup control measurement; Iterations must exceed
	// Warmup+1 so at least one steady-state period is measured.
	Iterations, Warmup int
	// ForwardCompute / BackwardCompute are the per-layer compute times on
	// each worker's device clock (deviceClock), which absorbs a sleep's
	// overshoot instead of adding it. Forward layer l of iteration i+1
	// starts no earlier than layer l's gradient synchronization from
	// iteration i finished — the structure that makes front-layer priority pay.
	ForwardCompute, BackwardCompute time.Duration
	// Metrics, if non-nil, instruments worker 0's scheduler and every
	// transport endpoint against the registry (core_*, netps_*/netar_*).
	Metrics *metrics.Registry
	// Trace, if non-nil, records wall-clock spans for every transport
	// operation in the shared Chrome-trace schema.
	Trace *trace.Wall
	// Seed seeds transport jitter; runs are *not* bitwise deterministic —
	// this is wall-clock measurement, not simulation.
	Seed int64
	// FuseTheta, when > 0, buckets gradients smaller than this many bytes
	// into fused CommTasks (core.Fuser): the small-tensor long tail then
	// pays one per-message overhead per bucket instead of one each. Must
	// be a multiple of 4. Buckets flush on size and at the end of each
	// backward pass — deterministic points, so every worker fuses the same
	// member sets.
	FuseTheta int64
	// Codec compresses gradient payloads on the wire (fp16 / int8 /
	// top-k); the zero value is the identity (raw fp32) codec. Lossy
	// codecs relax the runner's aggregation verification accordingly.
	Codec compress.Codec
	// Priority, when not PriorityDefault, derives the scheduling order
	// from the run's layer profile (uniform ForwardCompute and
	// BackwardCompute per layer, LayerBytes, liveLinkBytesPerSec) and
	// overrides the policy's priority function with the resulting rank
	// table: layer index, TicTac-style critical path, or a seeded random
	// permutation for ablation. The table is materialized once per run,
	// so every PS worker uses the same ranks.
	Priority core.PriorityPolicy
	// AutoTune, when non-nil, closes the online tuning loop: every
	// scheduler — each PS worker's, the ring's one — pins its per-iteration
	// (partition, credit) from one shared autotune.Controller and applies it
	// at the pass boundary through core.AsyncScheduler.SetParams, and
	// worker 0 feeds measured iteration durations back. Requires a
	// scheduled starting policy (positive
	// PartitionUnit and CreditBytes) — Policy supplies the controller's
	// starting point.
	AutoTune *autotune.Config
	// Shape, when non-empty, inserts a shaped serial link (per-message
	// overhead, byte rate, fault model) in front of every worker's
	// transport, with phase switches at iteration boundaries — the
	// injected bandwidth changes EXT-AUTOTUNE re-converges across.
	Shape []LinkShape
}

// LiveFIFO is the unscheduled live baseline: whole tensors, transmitted
// strictly one at a time in emission (back-to-front) order — a vanilla
// framework's single communication queue. CreditBytes=1 serializes: the
// scheduler admits a sub-task larger than the remaining credit only when
// nothing is in flight.
func LiveFIFO() core.Policy {
	return core.Policy{Name: "fifo", CreditBytes: 1}
}

// liveLinkBytesPerSec is the loopback-order link rate the critical-path
// priority uses to convert layer bytes into transfer time.
const liveLinkBytesPerSec = 1 << 30

// priorityRanks materializes the run's priority strategy into a per-layer
// rank table (nil for PriorityDefault). The live profile has uniform
// forward and backward compute per layer.
func (c LiveConfig) priorityRanks() ([]int64, error) {
	if c.Priority == core.PriorityDefault {
		return nil, nil
	}
	fp := make([]float64, len(c.LayerBytes))
	bp := make([]float64, len(c.LayerBytes))
	for i := range fp {
		fp[i] = c.ForwardCompute.Seconds()
		bp[i] = c.BackwardCompute.Seconds()
	}
	return c.Priority.Ranks(core.DAGTimings{FP: fp, BP: bp, LayerBytes: c.LayerBytes, BytesPerSec: liveLinkBytesPerSec}, c.Seed)
}

// Validate reports configuration errors.
func (c LiveConfig) Validate() error {
	switch c.Backend {
	case LiveBackendPS, LiveBackendRing:
	default:
		return fmt.Errorf("runner: unknown live backend %d", int(c.Backend))
	}
	if c.Workers < 1 {
		return fmt.Errorf("runner: live run needs >= 1 worker, got %d", c.Workers)
	}
	if len(c.LayerBytes) == 0 {
		return fmt.Errorf("runner: live run needs at least one layer")
	}
	for l, b := range c.LayerBytes {
		if b <= 0 || b%4 != 0 {
			return fmt.Errorf("runner: layer %d size %d is not a positive multiple of 4", l, b)
		}
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.Backend == LiveBackendRing && c.Policy.MaxRetries > 0 {
		// A retried AllReduceInto re-sends segments its successor already
		// consumed, then waits for segments its predecessor will not
		// resend: the collective cannot be aborted and restarted yet.
		return fmt.Errorf("runner: the ring backend cannot retry a collective (retry budget %d)", c.Policy.MaxRetries)
	}
	if c.Policy.PartitionUnit%4 != 0 {
		return fmt.Errorf("runner: partition unit %d is not a multiple of 4", c.Policy.PartitionUnit)
	}
	if c.Iterations < c.Warmup+2 {
		return fmt.Errorf("runner: iterations %d must exceed warmup %d by at least 2", c.Iterations, c.Warmup)
	}
	if c.FuseTheta < 0 || c.FuseTheta%4 != 0 {
		return fmt.Errorf("runner: fuse threshold %d is not a non-negative multiple of 4", c.FuseTheta)
	}
	if c.AutoTune != nil && (c.Policy.PartitionUnit <= 0 || c.Policy.CreditBytes <= 0) {
		return fmt.Errorf("runner: auto-tuning needs a scheduled starting policy (positive partition unit and credit), got unit %d credit %d", c.Policy.PartitionUnit, c.Policy.CreditBytes)
	}
	switch c.Priority {
	case core.PriorityDefault, core.PriorityLayer, core.PriorityCriticalPath, core.PriorityRandom:
	default:
		return fmt.Errorf("runner: unknown priority policy %d", int(c.Priority))
	}
	if err := validateShape(c.Shape); err != nil {
		return err
	}
	return nil
}

// LiveResult summarizes a live run.
type LiveResult struct {
	// IterTime is the mean post-warmup per-iteration wall-clock time in
	// seconds, measured as differences between consecutive forward-pass
	// start times on worker 0.
	IterTime float64
	// IterTimes are the individual post-warmup iteration periods.
	IterTimes []float64
	// ExposedComm is, per IterTimes entry, the seconds worker 0's device
	// idled in that iteration's forward pass waiting for synchronization:
	// the communication the scheduler failed to hide.
	ExposedComm []float64
	// Stats aggregates the scheduler counters across workers: on the ring
	// rank 0's and every follower's, which counts each partition it starts.
	Stats core.Stats
	// AutoTune is the controller's decision log and summary; nil unless
	// the run was configured with LiveConfig.AutoTune.
	AutoTune *autotune.Report
}

// liveComm launches one partition's gradient synchronization: in holds the
// local gradient values for the partition, out receives the cross-worker
// sum. The caller derives key from the partition's tensor identity (plain
// or fused) so every worker addresses the same aggregation slot.
//
// The PS transport is split-phase: it calls h.Sent() exactly once, iff the
// local push was acknowledged — before the pull, which blocks until every
// worker pushed — and h is the partition's *core.Handle, so the
// scheduler credit returns there and the cross-worker wait proceeds
// without holding the window; credit gates the bandwidth-consuming
// direction only. This matters: if blocking pulls held credit, two workers
// whose windows filled with *different* layer subsets would each wait
// forever for pushes the other has no credit left to admit — a
// cross-worker deadlock the auto-tuner hits as soon as it probes a credit
// smaller than a pass's total bytes (or one fused bucket). An error
// returned without Sent having been called is a failed
// send (the scheduler retries it); one returned after is the wait phase's
// outcome, which fails the task. A collective (the ring) is all send and
// never calls Sent: its outcome returns the credit, which only rank 0
// holds.
type liveComm func(key string, iter uint32, in, out []float32, h sender) error

// sender is the end of a partition's send phase: its *core.Handle, passed
// as it is, or a wrapper that observes the call.
type sender interface{ Sent() }

// sentFunc is a sender that is a function.
type sentFunc func()

// Sent calls f.
func (f sentFunc) Sent() { f() }

// traceComm records comm's operations as wall-clock spans on lane, named
// "<op> <key>#<iter>": the send phase as op send up to Sent, or to the
// return if comm never calls it, then the wait phase as "pull" up to the
// return. The shaper wraps the traced transport, so spans exclude its
// injected delay.
func traceComm(comm liveComm, tr *trace.Wall, lane, send string) liveComm {
	return func(key string, iter uint32, in, out []float32, h sender) error {
		op, start := send, time.Now()
		err := comm(key, iter, in, out, sentFunc(func() {
			tr.Add(lane, fmt.Sprintf("%s %s#%d", op, key, iter), start, time.Now())
			h.Sent()
			op, start = "pull", time.Now()
		}))
		tr.Add(lane, fmt.Sprintf("%s %s#%d", op, key, iter), start, time.Now())
		return err
	}
}

// firstFailure is the rank of the worker that saw a failure first in time.
// One worker's failure fails its peers too — on the ring rank 0 then
// reports a lost predecessor — so the earliest is the cause and the rest
// its echo. A worker sees a failure when its transport returns one (watch)
// or its ring coordinator fails (ringCoord.fatal).
type firstFailure struct {
	mu   sync.Mutex
	rank int // valid once seen
	seen bool
}

// saw notes that rank saw a failure now.
func (f *firstFailure) saw(rank int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.seen {
		f.rank, f.seen = rank, true
	}
}

// watch returns comm, noting each failure it returns as rank's.
func (f *firstFailure) watch(rank int, comm liveComm) liveComm {
	return func(key string, iter uint32, in, out []float32, h sender) error {
		err := comm(key, iter, in, out, h)
		if err != nil {
			f.saw(rank)
		}
		return err
	}
}

// runWorkers runs work for ranks 0..n-1 concurrently and returns the error
// of the worker that saw a failure first, naming it; the lowest-ranked
// error if none was seen through f.
func runWorkers(n int, f *firstFailure, work func(r int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = work(r)
		}()
	}
	wg.Wait()
	r := slices.IndexFunc(errs, func(err error) bool { return err != nil })
	if f.seen && errs[f.rank] != nil {
		r = f.rank
	}
	if r < 0 {
		return nil
	}
	return fmt.Errorf("runner: live worker %d: %w", r, errs[r])
}

// RunLive executes the configured live training run and returns its
// measured per-iteration time. Unlike Run, this is wall-clock measurement
// over real sockets — results vary run to run and across machines.
func RunLive(cfg LiveConfig) (LiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return LiveResult{}, err
	}
	// Materialize the priority strategy once: every PS worker must use the
	// same rank table.
	ranks, err := cfg.priorityRanks()
	if err != nil {
		return LiveResult{}, err
	}
	transports, peers, teardown, err := buildLiveTransports(cfg)
	if err != nil {
		return LiveResult{}, err
	}
	defer teardown()
	for r := range transports {
		if cfg.Trace != nil {
			lane, send := fmt.Sprintf("netps/c%d", r+1), "push"
			if cfg.Backend == LiveBackendRing {
				lane, send = fmt.Sprintf("netar/r%d", r), "allreduce"
			}
			transports[r] = traceComm(transports[r], cfg.Trace, lane, send)
		}
		if len(cfg.Shape) > 0 {
			shaper := newLinkShaper(cfg.Shape, cfg.Seed+int64(r)*101+1, cfg.Metrics)
			transports[r] = shaper.wrap(transports[r])
		}
	}
	var ctrl *autotune.Controller
	if cfg.AutoTune != nil {
		ac := *cfg.AutoTune
		if ac.Metrics == nil {
			ac.Metrics = cfg.Metrics
		}
		if ac.Trace == nil {
			ac.Trace = cfg.Trace
		}
		start := autotune.Setting{Partition: cfg.Policy.PartitionUnit, Credit: cfg.Policy.CreditBytes}
		if ctrl, err = autotune.New(start, ac); err != nil {
			return LiveResult{}, err
		}
	}

	starts, exposed := make([]time.Time, cfg.Iterations), make([]float64, cfg.Iterations)
	stats := make([]core.Stats, cfg.Workers)
	var fails firstFailure
	err = runWorkers(cfg.Workers, &fails, func(r int) (err error) {
		var ring *ringCoord
		if peers != nil {
			ring = newRingCoord(peers[r], r, cfg.Workers, nil)
			ring.fails = &fails
		}
		stats[r], err = liveWorker(cfg, r, ranks, fails.watch(r, transports[r]), ring, ctrl, starts, exposed)
		return err
	})
	if err != nil {
		return LiveResult{}, err
	}
	res := LiveResult{ExposedComm: exposed[cfg.Warmup : cfg.Iterations-1]}
	for _, s := range stats {
		res.Stats = addStats(res.Stats, s)
	}
	for i := cfg.Warmup; i+1 < cfg.Iterations; i++ {
		res.IterTimes = append(res.IterTimes, starts[i+1].Sub(starts[i]).Seconds())
	}
	for _, d := range res.IterTimes {
		res.IterTime += d
	}
	res.IterTime /= float64(len(res.IterTimes))
	if ctrl != nil {
		rep := ctrl.Report()
		res.AutoTune = &rep
	}
	return res, nil
}

// buildLiveTransports wires one transport endpoint per worker, the ring's
// peers (nil on PS) and a teardown closing them all.
func buildLiveTransports(cfg LiveConfig) ([]liveComm, []*netar.Peer, func(), error) {
	switch cfg.Backend {
	case LiveBackendRing:
		peers, teardown, err := dialRing(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		transports := make([]liveComm, len(peers))
		for r, peer := range peers {
			transports[r] = ringComm(peer)
		}
		return transports, peers, teardown, nil
	case LiveBackendPS:
		transports, teardown, err := buildPSTransports(cfg)
		return transports, nil, teardown, err
	}
	return nil, nil, nil, fmt.Errorf("runner: unknown live backend %d", int(cfg.Backend))
}

// dialRing starts cfg.Workers loopback ring peers, each dialed to its
// successor, plus a teardown closing them all. The teardown detaches every
// control handler first, so a peer does not read its neighbour's close as
// a lost ring.
func dialRing(cfg LiveConfig) ([]*netar.Peer, func(), error) {
	peers := make([]*netar.Peer, cfg.Workers)
	teardown := func() {
		for _, p := range peers {
			if p != nil {
				p.SetControl(nil)
			}
		}
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
	}
	for r := 0; r < cfg.Workers; r++ {
		opts := []netar.Option{netar.WithSeed(cfg.Seed + int64(r))}
		if !cfg.Codec.IsIdentity() {
			opts = append(opts, netar.WithCodec(cfg.Codec))
		}
		if cfg.Metrics != nil {
			opts = append(opts, netar.WithMetrics(cfg.Metrics))
		}
		p, err := netar.NewPeer(r, cfg.Workers, opts...)
		if err != nil {
			teardown()
			return nil, nil, err
		}
		if err := p.Listen("127.0.0.1:0"); err != nil {
			teardown()
			return nil, nil, err
		}
		peers[r] = p
	}
	for r := 0; r < cfg.Workers; r++ {
		if err := peers[r].Dial(peers[(r+1)%cfg.Workers].Addr()); err != nil {
			teardown()
			return nil, nil, err
		}
	}
	return peers, teardown, nil
}

// ringComm is peer's transport. The collective is indivisible: the whole
// op is the send phase, so rank 0's credit is held until it returns.
func ringComm(peer *netar.Peer) liveComm {
	return func(key string, iter uint32, in, out []float32, _ sender) error {
		return peer.AllReduceInto(key, iter, in, out)
	}
}

func buildPSTransports(cfg LiveConfig) ([]liveComm, func(), error) {
	// Every option below takes its zero value (nil registry, identity
	// codec) to mean "off".
	srv, err := netps.NewServer(cfg.Workers, netps.WithServerMetrics(cfg.Metrics))
	if err != nil {
		return nil, nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	clients := make([]*netps.Client, cfg.Workers)
	teardown := func() {
		for _, c := range clients {
			c.Close()
		}
		srv.Close()
	}
	transports := make([]liveComm, cfg.Workers)
	for r := 0; r < cfg.Workers; r++ {
		client := netps.NewClient(addr,
			netps.WithClientID(uint32(r+1)),
			netps.WithSeed(cfg.Seed+int64(r)),
			netps.WithCodec(cfg.Codec),
			netps.WithMetrics(cfg.Metrics))
		clients[r] = client
		transports[r] = func(key string, iter uint32, in, out []float32, h sender) error {
			if err := client.Push(key, iter, in); err != nil {
				return err
			}
			// The push is on the wire and acknowledged; the pull below
			// blocks until every worker pushed. Hand the scheduler its
			// credit back first (see liveComm).
			h.Sent()
			return client.PullInto(key, iter, out)
		}
	}
	return transports, teardown, nil
}

// liveTask is one scheduled task of a live worker — a layer's gradient or a
// fusion bucket of adjacent layers — as the core.Starter its partitions
// start through. in and out are its windows of the worker's gradient and
// output slabs; name is its cross-worker identity, to which the transport
// key appends the partition index. On the ring, task is its position in
// its pass, and rank 0 admits each partition to the followers before it
// starts it. A layer's liveTask is built once per run and re-enqueued
// every pass; the worker sets iter before each enqueue, once the layer's
// previous task has resolved.
type liveTask struct {
	name    string
	iter    uint32
	task    uint16
	in, out []float32
	comm    liveComm
	keys    *partKeys
	ring    *ringCoord
}

// StartSub synchronizes one partition: the transport returns its credit
// through Sent and its outcome through Done (see liveComm).
func (t *liveTask) StartSub(h *core.Handle) {
	sub := h.Sub()
	if t.ring != nil {
		if err := t.ring.admit(t.iter, t.task, sub); err != nil {
			h.Done(err)
			return
		}
	}
	lo, hi := sub.Offset/4, (sub.Offset+sub.Bytes)/4
	key := t.keys.key(t.name, sub.Index, sub.Count)
	h.Done(t.comm(key, t.iter, t.in[lo:hi], t.out[lo:hi], h))
}

// partKeys is one worker's transport keys, name[i/n] for partition i of n,
// built once per (tensor name, partition count) rather than per partition
// and iteration; a new count (SetParams) rebuilds the name's keys.
// Partitions start on goroutines of their own, hence the lock.
type partKeys struct {
	mu sync.Mutex
	m  map[string][]string
}

func (k *partKeys) key(name string, i, n int) string {
	k.mu.Lock()
	defer k.mu.Unlock()
	keys := k.m[name]
	if len(keys) != n {
		keys = make([]string, n)
		for j := range keys {
			keys[j] = fmt.Sprintf("%s[%d/%d]", name, j, n)
		}
		k.m[name] = keys
	}
	return keys[i]
}

// fusedTask is a fusion bucket's task. layerSlab lays sub-θ layers out
// contiguously in emission order and a bucket is a run of consecutive sub-θ
// Adds within one pass, so the bucket is the one window of the slab that
// starts at its first member's; the members' own windows must sit at the
// bucket's offsets in it.
func fusedTask(fd *core.Fused) core.Starter {
	members, n := fd.Members(), fd.Tensor.Bytes/4
	first := members[0].Starter.(*liveTask)
	t := &liveTask{name: fd.Tensor.Name, iter: first.iter, in: first.in[:n:n], out: first.out[:n:n], comm: first.comm, keys: first.keys, ring: first.ring}
	for i, m := range members {
		mt, off := m.Starter.(*liveTask), fd.Offsets()[i]/4
		if &mt.in[0] != &t.in[off] || &mt.out[0] != &t.out[off] {
			panic(fmt.Sprintf("runner: member %d of %s is not at its bucket offset in the slab", i, fd.Tensor.Name))
		}
	}
	return t
}

// layerSlab lays every layer's gradient and output out as windows of one
// slab, gradients in its first half and outputs in its second: sub-θ
// layers first, contiguous in emission (back-to-front) order, then the
// rest, so every fusion bucket is one window of each half. A window's
// capacity runs to the end of its half, which is what lets fusedTask widen
// a bucket's first member to the whole bucket.
func layerSlab(layerBytes []int64, theta int64) (grads, outs [][]float32) {
	var total int64
	for _, b := range layerBytes {
		total += b / 4
	}
	slab := make([]float32, 2*total)
	g, o := slab[:total:total], slab[total:]
	grads, outs = make([][]float32, len(layerBytes)), make([][]float32, len(layerBytes))
	var off int64
	for _, small := range []bool{true, false} {
		for l := len(layerBytes) - 1; l >= 0; l-- {
			if n := layerBytes[l] / 4; (layerBytes[l] < theta) == small {
				grads[l], outs[l] = g[off:off+n], o[off:off+n]
				off += n
			}
		}
	}
	return grads, outs
}

// deviceClock is an emulated device's nominal timeline: free is the instant
// it finishes the last op booked on it. An op starts at free, or at its
// input's release if later, and ends exactly its duration after, whatever a
// sleep overshot; a device never starts an op before its input is released
// or finishes one before its nominal end. now and sleep are the wall clock.
type deviceClock struct {
	free  time.Time
	now   func() time.Time
	sleep func(time.Duration)
}

// book books an op of d whose input is released at ready and returns its
// nominal end and how long the device idled waiting for ready.
func (c *deviceClock) book(ready time.Time, d time.Duration) (end time.Time, idle time.Duration) {
	start := c.free
	if ready.After(start) {
		idle, start = ready.Sub(start), ready
	}
	c.free = start.Add(d)
	return c.free, idle
}

// run books an op and sleeps to its end (a sleep of d <= 0 returns at
// once), returning the idle time.
func (c *deviceClock) run(ready time.Time, d time.Duration) time.Duration {
	end, idle := c.book(ready, d)
	c.sleep(end.Sub(c.now()))
	return idle
}

// liveWorker runs one worker's training loop: forward gated on the
// previous iteration's per-layer synchronization, backward emitting
// gradient CommTasks back-to-front into core.Fuser (buckets sub-θ tensors;
// pass-through at θ = 0), which feeds the worker's scheduler on PS and the
// ring's master Core (ringCoord) on the ring: rank 0's scheduler for every
// peer, a follower's driven by the admissions alone. With a controller,
// each backward pass first pins and applies the iteration's (partition,
// credit) to every scheduler that cuts partitions — each PS worker's, which
// keys its transport by the partition count, and the ring's rank 0, whose
// admissions carry the cut: the swap lands at the pass boundary, and
// in-flight tasks from the previous pass finish under the old config.
func liveWorker(cfg LiveConfig, rank int, ranks []int64, comm liveComm, ring *ringCoord, ctrl *autotune.Controller, starts []time.Time, exposed []float64) (core.Stats, error) {
	layers := len(cfg.LayerBytes)
	pol := cfg.Policy
	if ranks != nil {
		pol.Priority = core.RankPriority(ranks)
	}
	leader := ring == nil || rank == 0 // cuts and orders partitions
	if !leader {
		pol = core.Policy{Name: "follower"}
	}
	sched := core.NewAsync(pol)
	defer sched.Shutdown()
	if cfg.Metrics != nil && rank == 0 {
		sched.Instrument(cfg.Metrics)
	}
	var sink core.TaskSink = sched
	if ring != nil {
		ring.sched, sink = sched, ring // before any control frame can need it
	}
	// A bucket's content-derived name is identical on every worker that
	// bucketed the same members.
	fuser, err := core.NewFuser(core.FuserConfig{Theta: cfg.FuseTheta, Start: fusedTask}, sink)
	if err != nil {
		return core.Stats{}, err
	}
	defer fuser.Close()

	grads, outs := layerSlab(cfg.LayerBytes, cfg.FuseTheta)
	keys := &partKeys{m: map[string][]string{}}
	gates := make([]chan error, layers)
	released := make([]time.Time, layers) // written before the gate's send
	// Each layer's task, starter and OnFinished are built once and the task
	// is re-enqueued every pass, which the gate allows: layer l's next task
	// is emitted only after the forward pass took this one's outcome.
	tasks, starters := make([]core.Task, layers), make([]liveTask, layers)
	for l := range grads {
		for i := range grads[l] {
			grads[l][i] = float32((rank + 1) * (1 + l%8))
		}
		gates[l] = make(chan error, 1)
		starters[l] = liveTask{name: fmt.Sprintf("L%02d", l), in: grads[l], out: outs[l], comm: comm, keys: keys, ring: ring}
		t := &tasks[l]
		t.Tensor = tensor.Tensor{Layer: l, Name: "g", Bytes: cfg.LayerBytes[l]}
		t.Starter = &starters[l]
		// OnFinished runs under the scheduler's lock; the send cannot block,
		// as the forward pass took the last outcome before the task was
		// enqueued again. Its release instant travels with the send.
		t.OnFinished = func() { released[l] = time.Now(); gates[l] <- t.Err() }
	}
	// wait takes layer l's synchronization outcome, or the ring's failure.
	var dead <-chan struct{}
	if ring != nil {
		dead = ring.dead
	}
	wait := func(l int) error {
		select {
		case err := <-gates[l]:
			return err
		case <-dead:
			return ring.err // set before dead closed
		}
	}

	clock := &deviceClock{free: time.Now(), now: time.Now, sleep: time.Sleep}
	for it := 0; it < cfg.Iterations; it++ {
		if rank == 0 {
			starts[it] = time.Now()
			if ctrl != nil && it > 0 {
				ctrl.ObserveIteration(it-1, starts[it].Sub(starts[it-1]).Seconds())
			}
		}
		// Forward: layer l needs layer l's synchronized gradient from the
		// previous iteration before it can compute.
		var idle time.Duration
		for l := 0; l < layers; l++ {
			if it > 0 {
				if err := wait(l); err != nil {
					return sched.Stats(), fmt.Errorf("iteration %d layer %d: %w", it-1, l, err)
				}
			}
			idle += clock.run(released[l], cfg.ForwardCompute)
		}
		if rank == 0 {
			exposed[it] = idle.Seconds()
		}
		// The last forward pass has consumed every earlier synchronization:
		// cleared now, an output the last pass does not write fails the
		// final check instead of passing with an older, equal sum.
		if it == cfg.Iterations-1 {
			for _, o := range outs {
				clear(o)
			}
		}
		// Pass-boundary reconfiguration: pin this iteration's config (all
		// PS workers get the same pinned value) and apply it before any of
		// this pass's tasks are enqueued.
		if ctrl != nil && leader {
			s := ctrl.ConfigFor(it)
			if err := sched.SetParams(s.Partition, s.Credit); err != nil {
				return sched.Stats(), err
			}
		}
		// Backward: gradients become ready back-to-front and enter the
		// pipeline as they do; when each is sent is the scheduler's
		// business, not this loop's.
		for l := layers - 1; l >= 0; l-- {
			clock.run(time.Time{}, cfg.BackwardCompute)
			starters[l].iter = uint32(it)
			if err := fuser.Add(&tasks[l]); err != nil {
				return sched.Stats(), err
			}
		}
		// Pass boundary: the tail bucket goes out now — the same
		// deterministic point on every worker, so no bucket straddles the
		// forward pass.
		if err := fuser.Flush(); err != nil {
			return sched.Stats(), err
		}
	}
	// Drain the final iteration's synchronization.
	for l := 0; l < layers; l++ {
		if err := wait(l); err != nil {
			return sched.Stats(), fmt.Errorf("final iteration layer %d: %w", l, err)
		}
	}
	if cfg.Metrics != nil && rank == 0 {
		fs := fuser.Stats()
		cfg.Metrics.Counter("core_fused_tasks_total").Add(fs.FusedTasks)
		cfg.Metrics.Counter("core_fused_members_total").Add(fs.FusedMembers)
		cfg.Metrics.Counter("core_fusion_passthrough_total").Add(fs.Passthrough)
		cfg.Metrics.Counter("core_fusion_size_flushes_total").Add(fs.SizeFlushes)
		cfg.Metrics.Counter("core_fusion_explicit_flushes_total").Add(fs.ExplicitFlushes)
	}
	// Verify the last iteration's sums. Rank r fills layer l with
	// (r+1)·(1 + l mod 8), so every layer sums to its own small integer and
	// a partition or fused window aimed at the wrong layer shows. fp16
	// carries these exactly (small integers are representable in half
	// precision), and so does int8 on a message of one layer (one value
	// quantizes to q=127 at scale maxAbs/127). A fused int8 message mixes
	// layers, so each of the at most 2·Workers encodes on a value's path may
	// round it by half a step, maxAbs/254, with maxAbs at most the largest
	// sum. Top-k drops elements by design, and all contributions are
	// positive, so surviving values lie in [0, want].
	sum := cfg.Workers * (cfg.Workers + 1) / 2
	var tol float64
	if cfg.Codec.ID() == compress.CodecInt8 && cfg.FuseTheta > 0 {
		tol = float64(cfg.Workers*sum*8) / 127
	}
	topk := cfg.Codec.ID() == compress.CodecTopK
	for l := range outs {
		want := float32(sum * (1 + l%8))
		for i, v := range outs[l] {
			if topk {
				if v < 0 || v > want {
					return sched.Stats(), fmt.Errorf("layer %d[%d] = %v outside [0, %v] under top-k (aggregation corrupted)", l, i, v, want)
				}
				continue
			}
			if math.Abs(float64(v-want)) > tol {
				return sched.Stats(), fmt.Errorf("layer %d[%d] = %v, want %v (aggregation corrupted)", l, i, v, want)
			}
		}
	}
	return sched.Stats(), nil
}

// MeasureRingCollective times live ring collectives of n float32 values
// across the given number of loopback peers and returns the mean seconds
// per collective (after two warmup ops). EXT-RING uses two sizes of this
// microbenchmark to calibrate the simulator's analytic ring model — launch
// overhead from a tiny op, effective bandwidth from a large one — and then
// checks the calibrated model's predictions against live measurements.
func MeasureRingCollective(workers, floats, reps int) (float64, error) {
	if workers < 2 || reps < 1 {
		return 0, fmt.Errorf("runner: need >= 2 workers and >= 1 rep")
	}
	peers, teardown, err := dialRing(LiveConfig{Workers: workers, Seed: 1})
	if err != nil {
		return 0, err
	}
	defer teardown()
	const warmup = 2
	data, outs := make([][]float32, workers), make([][]float32, workers)
	for r := range data {
		data[r], outs[r] = make([]float32, floats), make([]float32, floats)
	}
	errs := make([]error, workers)
	var elapsed time.Duration
	for op := 0; op < warmup+reps; op++ {
		begin := time.Now()
		var wg sync.WaitGroup
		for r := 0; r < workers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = peers[r].AllReduceInto("bench", uint32(op), data[r], outs[r])
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		if op >= warmup {
			elapsed += time.Since(begin)
		}
	}
	return elapsed.Seconds() / float64(reps), nil
}
