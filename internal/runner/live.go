// Live training harness: the same iteration structure the simulator
// models (backward pass emits gradients back-to-front, the next forward
// pass consumes them front-to-back), but over real sockets — netps
// parameter servers or the netar segmented ring — with a real
// core.AsyncScheduler deciding transmission order. This is where the
// paper's generality claim is measurable outside the simulator: one
// scheduler, two architectures, wall-clock iteration times.

package runner

import (
	"fmt"
	"math"
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
// loopback TCP, one scheduler per worker, real wall-clock timing.
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
	// ForwardCompute / BackwardCompute are the per-layer compute times
	// (real sleeps). Forward layer l of iteration i+1 additionally blocks
	// until layer l's gradient synchronization from iteration i finished —
	// the dependency structure that makes front-layer priority pay.
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
	// so every worker — and, on coordinated ring runs, every peer's agreed
	// admission order — uses the same ranks.
	Priority core.PriorityPolicy
	// Pipeline selects cross-iteration pipelining (see PipelineMode):
	// whether a backward pass's gradient tasks reach the scheduler as the
	// pass produces them (overlapping iteration i's backward compute and
	// iteration i+1's forward-blocking transfers with communication) or
	// are held to the pass boundary. It only picks the release window
	// (see releaseWindow); PipelineAuto keeps each backend's established
	// behavior.
	Pipeline PipelineMode
	// PipelineWindow bounds the coordinated streaming release's reorder
	// lookahead (core.StreamReleaser); 0 picks half the layer count. Only
	// meaningful for PipelineOn on coordinated ring runs.
	PipelineWindow int
	// AutoTune, when non-nil, closes the online tuning loop: every worker
	// pins its per-iteration (partition, credit) from one shared
	// autotune.Controller and applies it at the pass boundary through
	// core.AsyncScheduler.SetParams, and worker 0 feeds measured iteration
	// durations back. Requires a scheduled starting policy (positive
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

// PipelineMode selects when a backward pass's gradient tasks reach the
// scheduler, the knob behind the paper's Fig. 3 overlap: pipelined runs
// admit iteration i+1's forward-blocking transfers while iteration i's
// backward pass is still computing; non-pipelined runs serialize the pass
// and its communication.
type PipelineMode int

const (
	// PipelineAuto keeps each backend's established behavior: PS (and
	// uncoordinated ring) runs stream tasks as the backward pass emits
	// them; coordinated ring runs hold the pass and release it best-first
	// at the boundary.
	PipelineAuto PipelineMode = iota
	// PipelineOn streams everywhere. On coordinated ring runs tasks are
	// released mid-pass through a bounded lookahead window in an agreed
	// total order, so communication overlaps backward compute without
	// giving up deadlock-freedom.
	PipelineOn
	// PipelineOff holds every pass's tasks until the backward pass ends on
	// both backends — the non-pipelined scheduled baseline the EXT-PRIORITY
	// ablation measures against.
	PipelineOff
)

// String returns the mode's flag spelling.
func (m PipelineMode) String() string {
	switch m {
	case PipelineAuto:
		return "auto"
	case PipelineOn:
		return "on"
	case PipelineOff:
		return "off"
	}
	return fmt.Sprintf("PipelineMode(%d)", int(m))
}

// ParsePipelineMode parses the -pipeline flag value.
func ParsePipelineMode(s string) (PipelineMode, error) {
	switch s {
	case "", "auto":
		return PipelineAuto, nil
	case "on", "stream":
		return PipelineOn, nil
	case "off", "passend":
		return PipelineOff, nil
	}
	return 0, fmt.Errorf("runner: unknown pipeline mode %q (want auto, on or off)", s)
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
	switch c.Pipeline {
	case PipelineAuto, PipelineOn, PipelineOff:
	default:
		return fmt.Errorf("runner: unknown pipeline mode %d", int(c.Pipeline))
	}
	if c.PipelineWindow < 0 {
		return fmt.Errorf("runner: negative pipeline window %d", c.PipelineWindow)
	}
	if err := validateShape(c.Shape); err != nil {
		return err
	}
	return nil
}

// coordinated reports whether every peer must admit partitions in one
// agreed total order: ring collectives block until *every* peer issues
// them, so priority scheduling under a finite credit window is only
// deadlock-free when all peers admit partitions in the same total order.
// Streaming per-layer release under each peer's own priority diverges
// — peer A's backward is a sleep ahead, its freshly-emitted urgent layer
// preempts its window while peer B still stop-and-waits on the tail A
// moved past, and neither completes (real all-reduce stacks solve exactly
// this with global readiness negotiation, e.g. Horovod's coordinator).
// FIFO-style policies (no Priority) stream safely: arrival order is
// emission order, identical on every peer.
//
// Coordinated workers therefore schedule on the rank their
// core.StreamReleaser stamps at release — computed from the emission
// sequence, the window and the rank table, all identical on every peer —
// instead of on the tensor's own priority. Coordination does not require
// giving up pipelining: the window only has to be the same everywhere, not
// the whole pass (see releaseWindow).
func (c LiveConfig) coordinated() bool {
	prioritized := c.Policy.Priority != nil || c.Priority != core.PriorityDefault
	return c.Backend == LiveBackendRing && prioritized && c.Policy.CreditBytes > 0
}

// releaseWindow derives the one number the release modes differ in, the
// core.StreamReleaser's lookahead. 1 releases every task the moment the
// backward pass emits it (PS and uncoordinated ring streaming). The layer
// count holds the pass to its boundary and releases it best rank first
// (PipelineOff anywhere; coordinated runs unless asked to pipeline).
// Coordinated PipelineOn streams with PipelineWindow tasks of lookahead,
// half the layers by default.
func (c LiveConfig) releaseWindow() int {
	layers, coordinated := len(c.LayerBytes), c.coordinated()
	switch {
	case c.Pipeline == PipelineOff, coordinated && c.Pipeline == PipelineAuto:
		return layers
	case !coordinated:
		return 1
	case c.PipelineWindow > 0:
		return c.PipelineWindow
	}
	return (layers + 1) / 2
}

// LiveResult summarizes a live run.
type LiveResult struct {
	// IterTime is the mean post-warmup per-iteration wall-clock time in
	// seconds, measured as differences between consecutive forward-pass
	// start times on worker 0.
	IterTime float64
	// IterTimes are the individual post-warmup iteration periods.
	IterTimes []float64
	// Stats aggregates the scheduler counters across workers.
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
// The PS transport is split-phase: it calls sent() exactly once, iff the
// local push was acknowledged — before the pull, which blocks until every
// worker pushed — and sent is the partition's core.Handle.Sent, so the
// scheduler credit returns there and the cross-worker wait proceeds
// without holding the window; credit gates the bandwidth-consuming
// direction only. This matters: if blocking pulls held credit, two workers
// whose windows filled with *different* layer subsets would each wait
// forever for pushes the other has no credit left to admit — a
// cross-worker deadlock the auto-tuner hits as soon as it probes a credit
// smaller than a pass's total bytes (or one fused bucket). A collective
// (the ring) is all send and never calls sent: its outcome returns the
// credit, and coordinated release already guarantees identical admission
// order. An error returned without sent() having been called is a failed
// send (the scheduler retries it); one returned after is the wait phase's
// outcome, which fails the task.
type liveComm func(key string, iter uint32, in, out []float32, sent func()) error

// RunLive executes the configured live training run and returns its
// measured per-iteration time. Unlike Run, this is wall-clock measurement
// over real sockets — results vary run to run and across machines.
func RunLive(cfg LiveConfig) (LiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return LiveResult{}, err
	}
	// Materialize the priority strategy once: every worker (and the
	// coordinated release's agreed order) must use the same rank table.
	ranks, err := cfg.priorityRanks()
	if err != nil {
		return LiveResult{}, err
	}
	transports, teardown, err := buildLiveTransports(cfg)
	if err != nil {
		return LiveResult{}, err
	}
	defer teardown()
	for r := range transports {
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

	starts := make([]time.Time, cfg.Iterations)
	errs := make([]error, cfg.Workers)
	stats := make([]core.Stats, cfg.Workers)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Workers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[r], errs[r] = liveWorker(cfg, r, ranks, transports[r], ctrl, starts)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return LiveResult{}, fmt.Errorf("runner: live worker %d: %w", r, err)
		}
	}
	res := LiveResult{}
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

// buildLiveTransports wires one transport endpoint per worker plus a
// teardown closing them all.
func buildLiveTransports(cfg LiveConfig) ([]liveComm, func(), error) {
	switch cfg.Backend {
	case LiveBackendRing:
		return buildRingTransports(cfg)
	case LiveBackendPS:
		return buildPSTransports(cfg)
	}
	return nil, nil, fmt.Errorf("runner: unknown live backend %d", int(cfg.Backend))
}

// dialRing starts cfg.Workers loopback ring peers, each dialed to its
// successor, plus a teardown closing them all.
func dialRing(cfg LiveConfig) ([]*netar.Peer, func(), error) {
	peers := make([]*netar.Peer, cfg.Workers)
	teardown := func() {
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
		if cfg.Trace != nil {
			opts = append(opts, netar.WithTracer(cfg.Trace))
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

func buildRingTransports(cfg LiveConfig) ([]liveComm, func(), error) {
	peers, teardown, err := dialRing(cfg)
	if err != nil {
		return nil, nil, err
	}
	transports := make([]liveComm, cfg.Workers)
	for r, peer := range peers {
		// The collective is indivisible: the whole op is the send phase,
		// so credit is held until it returns (safe: coordinated release
		// admits in one total order on every peer).
		transports[r] = func(key string, iter uint32, in, out []float32, _ func()) error {
			return peer.AllReduceInto(key, iter, in, out)
		}
	}
	return transports, teardown, nil
}

func buildPSTransports(cfg LiveConfig) ([]liveComm, func(), error) {
	// Every option below takes its zero value (nil registry, nil tracer,
	// identity codec) to mean "off".
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
			netps.WithMetrics(cfg.Metrics),
			netps.WithTracer(cfg.Trace))
		clients[r] = client
		transports[r] = func(key string, iter uint32, in, out []float32, sent func()) error {
			if err := client.Push(key, iter, in); err != nil {
				return err
			}
			// The push is on the wire and acknowledged; the pull below
			// blocks until every worker pushed. Hand the scheduler its
			// credit back first (see liveComm).
			sent()
			return client.PullInto(key, iter, out)
		}
	}
	return transports, teardown, nil
}

// liveTask is one scheduled task of a live worker — a layer's gradient or a
// fusion bucket of adjacent layers — as the core.Starter its partitions
// start through. in and out are its windows of the worker's gradient and
// output slabs; name is its cross-worker identity, to which the transport
// key appends the partition index.
type liveTask struct {
	name    string
	iter    uint32
	in, out []float32
	comm    liveComm
	keys    *partKeys
}

// StartSub synchronizes one partition: the transport returns its credit
// through Sent and its outcome through Done (see liveComm).
func (t *liveTask) StartSub(h *core.Handle) {
	sub := h.Sub()
	lo, hi := sub.Offset/4, (sub.Offset+sub.Bytes)/4
	key := t.keys.key(t.name, sub.Index, sub.Count)
	h.Done(t.comm(key, t.iter, t.in[lo:hi], t.out[lo:hi], h.Sent))
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
	t := &liveTask{name: fd.Tensor.Name, iter: first.iter, in: first.in[:n:n], out: first.out[:n:n], comm: first.comm, keys: first.keys}
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

// liveWorker runs one worker's training loop: forward gated on the
// previous iteration's per-layer synchronization, backward emitting
// gradient CommTasks back-to-front into one pipeline, whatever the
// configuration: core.Fuser (buckets sub-θ tensors; pass-through at θ = 0)
// → core.StreamReleaser (holds releaseWindow tasks of lookahead, stamps
// the agreed order on coordinated runs) → the worker's scheduler. With a
// controller, each backward pass first pins and applies the iteration's
// (partition, credit): the swap lands at the pass boundary, in-flight tasks
// from the previous pass finish under the old config, and the controller's
// per-iteration pinning keeps partition counts — which the transport keys
// embed — identical across workers.
func liveWorker(cfg LiveConfig, rank int, ranks []int64, comm liveComm, ctrl *autotune.Controller, starts []time.Time) (core.Stats, error) {
	layers := len(cfg.LayerBytes)
	coordinated := cfg.coordinated()
	// order is the run's priority table as a function. It reads
	// Tensor.Layer as the layer index (a bucket's is its most urgent
	// member's), which holds until the releaser's stamp lands.
	order := core.PriorityFn(core.LayerPriority)
	if ranks != nil {
		order = core.RankPriority(ranks)
	}
	pol := cfg.Policy
	if coordinated {
		// The releaser stamps the agreed rank into Tensor.Layer; the policy
		// must read the stamp verbatim, not re-map it through a rank table.
		// The stamp is strictly increasing across passes, so peers skewed
		// into different iterations still admit the two in-flight passes'
		// partitions in one agreed total order, and a new pass's front
		// layer never preempts the previous pass's unfinished tail — which
		// is exactly where a lagging peer still is.
		pol.Priority = core.LayerPriority
	} else if ranks != nil {
		pol.Priority = order
	}
	sched := core.NewAsync(pol)
	defer sched.Shutdown()
	if cfg.Metrics != nil && rank == 0 {
		sched.Instrument(cfg.Metrics)
	}
	releaser, err := core.NewStreamReleaser(cfg.releaseWindow(), coordinated, order, sched)
	if err != nil {
		return core.Stats{}, err
	}
	// A bucket's content-derived name is identical on every worker that
	// bucketed the same members.
	fuser, err := core.NewFuser(core.FuserConfig{Theta: cfg.FuseTheta, Start: fusedTask}, releaser)
	if err != nil {
		return core.Stats{}, err
	}
	defer fuser.Close()

	grads, outs := layerSlab(cfg.LayerBytes, cfg.FuseTheta)
	keys := &partKeys{m: map[string][]string{}}
	gates := make([]chan error, layers)
	names := make([]string, layers)
	for l := range grads {
		for i := range grads[l] {
			grads[l][i] = float32((rank + 1) * (1 + l%8))
		}
		gates[l] = make(chan error, 1)
		names[l] = fmt.Sprintf("L%02d", l)
	}

	for it := 0; it < cfg.Iterations; it++ {
		if rank == 0 {
			starts[it] = time.Now()
			if ctrl != nil && it > 0 {
				ctrl.ObserveIteration(it-1, starts[it].Sub(starts[it-1]).Seconds())
			}
		}
		// Forward: layer l needs layer l's synchronized gradient from the
		// previous iteration before it can compute.
		for l := 0; l < layers; l++ {
			if it > 0 {
				if err := <-gates[l]; err != nil {
					return sched.Stats(), fmt.Errorf("iteration %d layer %d: %w", it-1, l, err)
				}
			}
			if cfg.ForwardCompute > 0 {
				time.Sleep(cfg.ForwardCompute)
			}
		}
		// Pass-boundary reconfiguration: pin this iteration's config (all
		// workers get the same pinned value) and apply it before any of
		// this pass's tasks are enqueued.
		if ctrl != nil {
			s := ctrl.ConfigFor(it)
			if err := sched.SetParams(s.Partition, s.Credit); err != nil {
				return sched.Stats(), err
			}
		}
		// Backward: gradients become ready back-to-front and enter the
		// pipeline as they do; how long each waits there is the window's
		// business, not this loop's.
		for l := layers - 1; l >= 0; l-- {
			if cfg.BackwardCompute > 0 {
				time.Sleep(cfg.BackwardCompute)
			}
			t := &core.Task{
				Tensor:  tensor.Tensor{Layer: l, Name: "g", Bytes: cfg.LayerBytes[l]},
				Starter: &liveTask{name: names[l], iter: uint32(it), in: grads[l], out: outs[l], comm: comm, keys: keys},
			}
			// OnFinished runs under the scheduler's lock; the send cannot
			// block, because layer l's next task is emitted only after the
			// forward pass took this value.
			t.OnFinished = func() { gates[l] <- t.Err() }
			if err := fuser.Add(t); err != nil {
				return sched.Stats(), err
			}
		}
		// Pass boundary: the tail bucket, then whatever the window still
		// holds, go out now — the same deterministic point on every worker,
		// so neither a bucket nor the lookahead straddles the forward pass.
		if err := fuser.Flush(); err != nil {
			return sched.Stats(), err
		}
		if err := releaser.Flush(); err != nil {
			return sched.Stats(), err
		}
	}
	// Drain the final iteration's synchronization.
	for l := 0; l < layers; l++ {
		if err := <-gates[l]; err != nil {
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
