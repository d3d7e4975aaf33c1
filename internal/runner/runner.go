// Package runner wires models, engines, plugins, schedulers and substrates
// into complete simulated training runs matching the paper's evaluation
// setups (§6.1): a cluster of machines with 8 GPUs each, PS or all-reduce
// gradient synchronization, TCP or RDMA transport at 1–100 Gbps, driven by
// MXNet-, TensorFlow- or PyTorch-flavored engines under a configurable
// scheduling policy.
package runner

import (
	"fmt"
	"slices"
	"sync"

	"bytescheduler/internal/allreduce"
	"bytescheduler/internal/cluster"
	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/engine"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/model"
	"bytescheduler/internal/network"
	"bytescheduler/internal/plugin"
	"bytescheduler/internal/ps"
	"bytescheduler/internal/sim"
	"bytescheduler/internal/trace"
)

// Arch selects the gradient synchronization architecture.
type Arch int

const (
	// PS is the parameter-server architecture.
	PS Arch = iota
	// AllReduce is ring all-reduce (the paper's "NCCL" setups).
	AllReduce
)

// String returns the architecture name.
func (a Arch) String() string {
	switch a {
	case PS:
		return "PS"
	case AllReduce:
		return "NCCL"
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// DefaultGPUsPerMachine matches the paper's testbed (8x V100 per server).
const DefaultGPUsPerMachine = 8

// intraMachineBytesPerSec is the effective intra-machine aggregation
// bandwidth for PS setups (8 GPUs copying gradients to host memory and
// reducing there). Gradients pay a 2(G-1)/G per-byte cost before the NIC
// sees them.
const intraMachineBytesPerSec = 50e9

// ncclIntraBytesPerSec is the effective intra-machine ring bus bandwidth for
// NCCL setups (PCIe, no NVLink on the paper's testbed); the intra stage is
// part of every collective, so all-reduce communication exists even on a
// single machine.
const ncclIntraBytesPerSec = 10e9

// Config describes one training run.
type Config struct {
	// Model is the DNN to train.
	Model *model.Model
	// Framework selects barrier behavior.
	Framework plugin.Framework
	// Arch selects PS or all-reduce.
	Arch Arch
	// Transport is the network profile (network.TCP() / network.RDMA()).
	Transport network.Profile
	// BandwidthGbps is the per-direction NIC speed.
	BandwidthGbps float64
	// GPUs is the total GPU count; must be a multiple of
	// DefaultGPUsPerMachine.
	GPUs int
	// Policy is the communication scheduling policy (core.FIFO() for the
	// vanilla baseline).
	Policy core.Policy
	// Scheduled enables ByteScheduler integration: per-layer out-of-engine
	// dependencies replace the global barrier on TensorFlow/PyTorch.
	// Vanilla baselines leave it false.
	Scheduled bool
	// Priority, when not PriorityDefault, derives the scheduling order
	// from the engine's DAG timing analysis (layer index, TicTac-style
	// critical path, or a seeded random permutation for ablation) and
	// overrides Policy.Priority with the resulting rank table. The profile
	// is taken after compression, so the critical path sees the bytes the
	// wire actually moves.
	Priority core.PriorityPolicy
	// Async selects asynchronous PS training (ignored for all-reduce).
	Async bool
	// Collective selects the all-reduce algorithm (ring by default;
	// ignored for PS).
	Collective allreduce.Algorithm
	// Compression, if non-nil, applies gradient compression: the
	// substrates move the compressed sizes and every gradient pays the
	// codec latency before it is announced. Orthogonal to scheduling
	// (§8).
	Compression *compress.Compressor
	// Placement selects the PS placement algorithm over assignment units:
	// round-robin (zero value, the paper's baseline), size-balanced greedy
	// (LPT), or consistent hash-ring. Ignored for all-reduce. This is the
	// knob the paper's §6.2 load-imbalance analysis motivates: with skewed
	// tensor sizes the baseline hot-spots one server, and the hottest
	// server bounds cluster goodput.
	Placement ps.Strategy
	// Faults, if non-nil, injects deterministic fabric degradation
	// (message drops, transient link outages, latency spikes) — the
	// simulated mirror of the live stack's failure hardening. PS only:
	// the all-reduce substrate models the ring analytically and has no
	// per-message fabric to degrade.
	Faults *network.FaultConfig
	// Iterations and Warmup control measurement (paper: 500 after 10; the
	// simulator is deterministic, so defaults are smaller).
	Iterations, Warmup int
	// Jitter adds relative compute-time noise; Seed seeds it.
	Jitter float64
	Seed   int64
	// Cluster, if non-nil, switches the run from a single training job to
	// a multi-job cluster scenario: hundreds of heterogeneous jobs driven
	// through admission control, placement, and bandwidth/credit sharing
	// (internal/cluster). Single-job fields (Model, Arch, Policy, ...) are
	// ignored; the scenario is self-contained, so it folds into sweep
	// cache keys like any other scalar configuration.
	Cluster *cluster.Scenario
	// Trace, if non-nil, records GPU spans.
	Trace *trace.Recorder
	// Metrics, if non-nil, receives the run's counters, gauges and span
	// histograms after completion, under the same metric names the live
	// stack publishes incrementally. When Metrics is set and Trace is nil,
	// the runner attaches an internal recorder so the span-duration
	// histograms are still populated.
	Metrics *metrics.Registry
}

// withDefaults fills derived fields.
func (c Config) withDefaults() Config {
	if c.Iterations == 0 {
		c.Iterations = 12
	}
	if c.Warmup == 0 {
		c.Warmup = 2
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Cluster != nil {
		// Cluster scenarios are self-contained; the single-job knobs are
		// ignored, so only the scenario itself needs to hold up.
		return c.Cluster.Validate()
	}
	if c.Model == nil {
		return fmt.Errorf("runner: nil model")
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.BandwidthGbps <= 0 {
		return fmt.Errorf("runner: non-positive bandwidth %v", c.BandwidthGbps)
	}
	if c.GPUs <= 0 || c.GPUs%DefaultGPUsPerMachine != 0 {
		return fmt.Errorf("runner: GPUs=%d not a positive multiple of %d per machine", c.GPUs, DefaultGPUsPerMachine)
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.Warmup >= c.Iterations {
		return fmt.Errorf("runner: warmup %d >= iterations %d", c.Warmup, c.Iterations)
	}
	switch c.Arch {
	case PS, AllReduce:
	default:
		return fmt.Errorf("runner: unknown arch %d", int(c.Arch))
	}
	switch c.Placement {
	case ps.StrategyRoundRobin, ps.StrategySizeBalanced, ps.StrategyHashRing, ps.StrategyDelayAware:
	default:
		return fmt.Errorf("runner: unknown placement strategy %d", int(c.Placement))
	}
	if c.Faults != nil {
		if c.Arch != PS {
			return fmt.Errorf("runner: fault injection requires the PS fabric")
		}
		// Fault nodes live on the shared worker+server fabric (2x machines
		// nodes: workers then servers).
		if err := c.Faults.Validate(2 * c.Machines()); err != nil {
			return err
		}
	}
	return nil
}

// Machines returns the number of worker machines.
func (c Config) Machines() int { return c.GPUs / DefaultGPUsPerMachine }

// Name returns a human-readable setup label like
// "MXNet PS RDMA VGG16 x32gpu".
func (c Config) Name() string {
	if c.Cluster != nil {
		s := *c.Cluster
		return fmt.Sprintf("cluster %dj x%dn fair=%v", s.Jobs, s.Nodes, s.Fair)
	}
	return fmt.Sprintf("%v %v %s %s x%dgpu", c.Framework, c.Arch, c.Transport.Name, c.Model.Name, c.GPUs)
}

// Result summarizes a run.
type Result struct {
	// SamplesPerSec is the aggregate training speed (images/s or
	// tokens/s).
	SamplesPerSec float64
	// IterTime is the steady-state per-iteration time in seconds.
	IterTime float64
	// LoadImbalance is the PS max/mean received-byte ratio (0 for
	// all-reduce).
	LoadImbalance float64
	// PlannedImbalance is max/mean of the assigner's planned per-server
	// bytes (0 for all-reduce) — placement skew before big-array striping
	// and multi-worker traffic smooth or amplify it.
	PlannedImbalance float64
	// GPUUtilization is worker 0's compute busy fraction; its complement
	// is the communication stall scheduling exists to shrink.
	GPUUtilization float64
	// UpStats aggregates the push/master scheduler counters across
	// workers; DownStats the pull side (PS only).
	UpStats, DownStats core.Stats
	// Faults counts injected fabric degradation (zero without fault
	// injection).
	Faults network.FaultStats
	// Cluster holds the multi-job scenario report when Config.Cluster was
	// set; the single-job fields above are zero in that mode.
	Cluster *cluster.Report
}

// world is one wired simulation — simulator, substrate, plugin, engine and
// the plugin's schedulers — sized by its shape: the architecture, the
// machine count and the model's tensors. Everything else a Config sets is
// applied by reset, which every trial runs, on a fresh world as on a kept
// one; a world is built only where none of its shape is idle (see
// worldList).
type world struct {
	arch     Arch
	machines int
	// layers is the world's own copy of the model's layers, which the
	// plugin schedules: its shape, immune to a caller editing its model.
	layers []model.Layer

	se  *sim.Engine
	fab *network.Fabric // PS only
	// shared marks se and fab as the caller's, which co-scheduled jobs
	// share: reset leaves them alone.
	shared bool

	cluster *ps.Cluster
	psPlug  *plugin.PSPlugin
	ring    *allreduce.Ring
	arPlug  *plugin.AllReducePlugin
	eng     *engine.Engine
}

// fits reports whether cfg's trial can run on w.
func (w *world) fits(cfg Config) bool {
	if w.arch != cfg.Arch || w.machines != cfg.Machines() || len(w.layers) != len(cfg.Model.Layers) {
		return false
	}
	for i, l := range cfg.Model.Layers {
		if !slices.Equal(w.layers[i].Tensors, l.Tensors) {
			return false
		}
	}
	return true
}

// newWorld wires a simulation of cfg's shape onto se. A PS job builds its
// own fabric unless fab is non-nil, the fabric co-scheduled jobs share. The
// world is not ready to start before reset.
func newWorld(se *sim.Engine, fab *network.Fabric, cfg Config, engCfg engine.Config) (*world, error) {
	w := &world{arch: cfg.Arch, machines: cfg.Machines(), se: se, fab: fab, shared: fab != nil}
	w.layers = make([]model.Layer, len(cfg.Model.Layers))
	for i, l := range cfg.Model.Layers {
		w.layers[i] = l
		w.layers[i].Tensors = slices.Clone(l.Tensors)
	}
	m := *cfg.Model
	m.Layers = w.layers
	var hook engine.CommHook
	switch cfg.Arch {
	case PS:
		if fab == nil {
			w.fab = network.NewFabric(se, 2*w.machines, cfg.BandwidthGbps, cfg.Transport)
		}
		cluster, err := ps.New(se, w.fab, psConfig(cfg))
		if err != nil {
			return nil, err
		}
		w.cluster = cluster
		w.psPlug = plugin.NewPS(cluster, &m, cfg.Policy)
		hook = w.psPlug
	case AllReduce:
		ring, err := allreduce.New(se, w.machines, cfg.BandwidthGbps, cfg.Transport)
		if err != nil {
			return nil, err
		}
		w.ring = ring
		w.arPlug = plugin.NewAllReduce(ring, &m, w.machines, cfg.Policy)
		hook = w.arPlug
	default:
		return nil, fmt.Errorf("runner: unknown arch %d", int(cfg.Arch))
	}
	eng, err := engine.New(se, engCfg, hook)
	if err != nil {
		return nil, err
	}
	w.eng = eng
	return w, nil
}

// psConfig is the PS deployment cfg describes.
func psConfig(cfg Config) ps.Config {
	// Placement granularity: whole tensors for unpartitioned policies,
	// partition spreading when the policy partitions.
	assignment := ps.RoundRobinTensor
	if cfg.Policy.PartitionUnit > 0 {
		assignment = ps.SpreadPartitions
	}
	m := cfg.Machines()
	return ps.Config{Workers: m, Servers: m, Assignment: assignment, Strategy: cfg.Placement, Async: cfg.Async}
}

// reset readies w to run cfg's trial: every layer returns to its
// constructed state under cfg's seed, jitter, link, policy, trace and
// faults, keeping what it has allocated. engCfg lets callers attach hooks
// (e.g. OnIteration for online tuning).
func (w *world) reset(cfg Config, engCfg engine.Config) error {
	if cfg.Priority != core.PriorityDefault {
		// Materialize the priority strategy once per run: ranks come from
		// the (post-compression) DAG profile at the configured link rate,
		// so every simulated worker schedules by the same table.
		prof := engine.Profile(cfg.Model)
		ranks, err := cfg.Priority.Ranks(prof.DAGTimings(cfg.BandwidthGbps*1e9/8), cfg.Seed)
		if err != nil {
			return err
		}
		cfg.Policy.Priority = core.RankPriority(ranks)
	}
	if !w.shared {
		w.se.Reset()
	}
	switch w.arch {
	case PS:
		if !w.shared {
			w.fab.Reset(cfg.BandwidthGbps, cfg.Transport)
			w.fab.SetTrace(cfg.Trace)
			if cfg.Faults != nil {
				if err := w.fab.InjectFaults(*cfg.Faults); err != nil {
					return err
				}
			}
		}
		w.cluster.Reset(psConfig(cfg))
		w.psPlug.Reset(cfg.Policy)
	case AllReduce:
		if err := w.ring.Reset(cfg.BandwidthGbps, cfg.Transport); err != nil {
			return err
		}
		w.ring.SetIntraNode(DefaultGPUsPerMachine, ncclIntraBytesPerSec)
		w.ring.SetAlgorithm(cfg.Collective)
		w.ring.SetTrace(cfg.Trace)
		w.arPlug.Reset(cfg.Policy)
	}
	return w.eng.Reset(engCfg)
}

// setParams adjusts partition and credit sizes live, for runtime tuning.
func (w *world) setParams(partition, credit int64) {
	if w.psPlug != nil {
		w.psPlug.SetParams(partition, credit)
	} else {
		w.arPlug.SetParams(partition, credit)
	}
}

// collect fills the substrate's share of a drained run's result.
func (w *world) collect(res *Result) error {
	if w.arch == AllReduce {
		if n := w.arPlug.Outstanding(); n != 0 {
			return fmt.Errorf("runner: %d collectives never completed", n)
		}
		res.UpStats = w.arPlug.Scheduler().Stats()
		return nil
	}
	res.LoadImbalance = w.cluster.LoadImbalance()
	res.PlannedImbalance = ps.Imbalance(w.cluster.PlannedLoad())
	res.Faults = w.fab.FaultStats()
	for i := 0; i < w.machines; i++ {
		res.UpStats = addStats(res.UpStats, w.psPlug.UpScheduler(i).Stats())
		res.DownStats = addStats(res.DownStats, w.psPlug.DownScheduler(i).Stats())
	}
	return nil
}

// applyCompression applies cfg's gradient compression, if any: the
// substrates (and the engine's per-layer byte accounting) see compressed
// sizes, and the codec latency rides the gradient-ready path alongside
// local aggregation.
func applyCompression(cfg Config, engCfg engine.Config) (Config, engine.Config, error) {
	if cfg.Compression == nil {
		return cfg, engCfg, nil
	}
	if err := cfg.Compression.Validate(); err != nil {
		return cfg, engCfg, err
	}
	compressed, err := cfg.Compression.Apply(cfg.Model)
	if err != nil {
		return cfg, engCfg, err
	}
	cfg.Model = compressed
	engCfg.Model = cfg.Model
	engCfg.LocalAggSecPerByte += cfg.Compression.CodecSecPerByte()
	return cfg, engCfg, nil
}

// build wires and resets a world of its own for a caller that keeps none:
// online tuning and co-scheduled jobs.
func build(se *sim.Engine, fab *network.Fabric, cfg Config, engCfg engine.Config) (*world, error) {
	cfg, engCfg, err := applyCompression(cfg, engCfg)
	if err != nil {
		return nil, err
	}
	w, err := newWorld(se, fab, cfg, engCfg)
	if err != nil {
		return nil, err
	}
	return w, w.reset(cfg, engCfg)
}

// maxIdleWorlds bounds the worlds Run keeps between trials: enough for a
// sweep's workers to each find theirs, few enough that a process holds at
// most this many trials' worth of records while idle.
const maxIdleWorlds = 8

// worldList is the idle worlds between trials, most recently used last. A
// trial takes its world out, so no two trials share one, and puts it back
// only once it succeeded; past maxIdleWorlds the least recently used is
// dropped.
type worldList struct {
	mu   sync.Mutex
	idle []*world
}

// worlds is the list Run draws from: package state, so every caller of Run
// — the tuner's objective, each sweep cell, the benchmark — reuses worlds
// with no API change. A world in it has no trial as owner.
var worlds worldList

// take removes and returns the most recently used idle world cfg fits, or nil.
func (l *worldList) take(cfg Config) *world {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.idle) - 1; i >= 0; i-- {
		if w := l.idle[i]; w.fits(cfg) {
			l.idle = slices.Delete(l.idle, i, i+1)
			return w
		}
	}
	return nil
}

// put keeps w for a later trial.
func (l *worldList) put(w *world) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) == maxIdleWorlds {
		l.idle = slices.Delete(l.idle, 0, 1)
	}
	l.idle = append(l.idle, w)
}

// engineConfig derives the engine configuration from cfg.
func engineConfig(cfg Config) engine.Config {
	// PS workers aggregate local GPUs before the NIC sees a gradient; for
	// all-reduce the intra-node stage is part of the collective itself.
	const g = DefaultGPUsPerMachine
	localAgg := 2 * float64(g-1) / float64(g) / intraMachineBytesPerSec
	if cfg.Arch == AllReduce {
		localAgg = 0
	}
	return engine.Config{
		Model:              cfg.Model,
		Workers:            cfg.Machines(),
		Dependency:         cfg.Framework.DependencyMode(cfg.Scheduled),
		Iterations:         cfg.Iterations,
		LocalAggSecPerByte: localAgg,
		Jitter:             cfg.Jitter,
		Seed:               cfg.Seed,
		Trace:              cfg.Trace,
	}
}

// Run executes the configured training and returns its measured speed.
func Run(cfg Config) (Result, error) {
	res, _, err := runOn(&worlds, cfg)
	return res, err
}

// runOn is Run drawing its world from l, which also returns the number of
// events the trial fired; a test passes an empty list for a fresh build.
// The world goes back to l after a trial that succeeded and recorded no
// trace (a kept world would hold the caller's recorder); a failed trial's
// world is dropped.
func runOn(l *worldList, cfg Config) (Result, uint64, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, 0, err
	}
	if cfg.Metrics != nil && cfg.Trace == nil {
		cfg.Trace = trace.New()
	}
	if cfg.Cluster != nil {
		res, err := runCluster(cfg)
		return res, 0, err
	}
	cfg, engCfg, err := applyCompression(cfg, engineConfig(cfg))
	if err != nil {
		return Result{}, 0, err
	}
	w := l.take(cfg)
	if w == nil {
		if w, err = newWorld(sim.New(), nil, cfg, engCfg); err != nil {
			return Result{}, 0, err
		}
	}
	if err := w.reset(cfg, engCfg); err != nil {
		return Result{}, 0, err
	}
	w.eng.Start()
	w.se.Run()
	if leaked := w.eng.OutstandingGates(); leaked != 0 {
		return Result{}, 0, fmt.Errorf("runner: %d communication gates never opened", leaked)
	}
	res := summarize(cfg, w.eng.Result())
	res.GPUUtilization = w.eng.GPUUtilization(0)
	if err := w.collect(&res); err != nil {
		return Result{}, 0, err
	}
	publishMetrics(cfg.Metrics, cfg, res, cfg.Trace)
	fired := w.se.Fired()
	if cfg.Trace == nil {
		l.put(w)
	}
	return res, fired, nil
}

func summarize(cfg Config, er engine.Result) Result {
	iter := er.AvgIterTime(cfg.Warmup)
	samplesPerIter := float64(cfg.Model.BatchPerGPU) * float64(cfg.GPUs)
	return Result{
		IterTime:      iter,
		SamplesPerSec: samplesPerIter / iter,
	}
}

func addStats(a, b core.Stats) core.Stats {
	a.TasksEnqueued += b.TasksEnqueued
	a.SubsStarted += b.SubsStarted
	a.SubsFinished += b.SubsFinished
	a.Preemptions += b.Preemptions
	a.Retries += b.Retries
	a.Failures += b.Failures
	if b.MaxQueueLen > a.MaxQueueLen {
		a.MaxQueueLen = b.MaxQueueLen
	}
	if b.MaxInflightBytes > a.MaxInflightBytes {
		a.MaxInflightBytes = b.MaxInflightBytes
	}
	return a
}

// LinearScaling returns the paper's linear-scalability reference: the
// computation-only speed of the configured GPU count (single-machine vanilla
// speed multiplied by machine count).
func LinearScaling(cfg Config) float64 {
	cfg = cfg.withDefaults()
	return cfg.Model.PerGPUSpeed * float64(cfg.GPUs)
}

// SpeedWithParams runs cfg under a ByteScheduler policy with the given
// partition and credit sizes (bytes) and returns the training speed. This is
// the auto-tuner's objective function.
func SpeedWithParams(cfg Config, partition, credit int64) (float64, error) {
	cfg.Policy = core.ByteScheduler(partition, credit)
	cfg.Scheduled = true
	res, err := Run(cfg)
	if err != nil {
		return 0, err
	}
	return res.SamplesPerSec, nil
}
