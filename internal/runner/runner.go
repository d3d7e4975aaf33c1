// Package runner wires models, engines, plugins, schedulers and substrates
// into complete simulated training runs matching the paper's evaluation
// setups (§6.1): a cluster of machines with 8 GPUs each, PS or all-reduce
// gradient synchronization, TCP or RDMA transport at 1–100 Gbps, driven by
// MXNet-, TensorFlow- or PyTorch-flavored engines under a configurable
// scheduling policy.
package runner

import (
	"fmt"

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

// instance is a wired simulation ready to start.
type instance struct {
	eng       *engine.Engine
	setParams func(partition, credit int64)
	collect   func(res *Result) error
}

// build wires a complete simulation onto se from the configuration. engCfg
// lets callers attach hooks (e.g. OnIteration for online tuning) before
// wiring. A PS job builds its own fabric unless fab is non-nil, the fabric
// co-scheduled jobs share.
func build(se *sim.Engine, fab *network.Fabric, cfg Config, engCfg engine.Config) (*instance, error) {
	if cfg.Compression != nil {
		if err := cfg.Compression.Validate(); err != nil {
			return nil, err
		}
		// The substrates (and the engine's per-layer byte accounting)
		// see compressed sizes; the codec latency rides the
		// gradient-ready path alongside local aggregation.
		compressed, err := cfg.Compression.Apply(cfg.Model)
		if err != nil {
			return nil, err
		}
		cfg.Model = compressed
		engCfg.Model = cfg.Model
		engCfg.LocalAggSecPerByte += cfg.Compression.CodecSecPerByte()
	}
	if cfg.Priority != core.PriorityDefault {
		// Materialize the priority strategy once per run: ranks come from
		// the (post-compression) DAG profile at the configured link rate,
		// so every simulated worker schedules by the same table.
		prof := engine.Profile(cfg.Model)
		ranks, err := cfg.Priority.Ranks(prof.DAGTimings(cfg.BandwidthGbps*1e9/8), cfg.Seed)
		if err != nil {
			return nil, err
		}
		cfg.Policy.Priority = core.RankPriority(ranks)
	}
	machines := cfg.Machines()
	inst := &instance{}
	switch cfg.Arch {
	case PS:
		if fab == nil {
			fab = network.NewFabric(se, 2*machines, cfg.BandwidthGbps, cfg.Transport)
			fab.SetTrace(cfg.Trace)
			if cfg.Faults != nil {
				if err := fab.InjectFaults(*cfg.Faults); err != nil {
					return nil, err
				}
			}
		}
		// Placement granularity: whole tensors for unpartitioned policies,
		// partition spreading when the policy partitions.
		assignment := ps.RoundRobinTensor
		if cfg.Policy.PartitionUnit > 0 {
			assignment = ps.SpreadPartitions
		}
		cluster, err := ps.New(se, fab, ps.Config{
			Workers:    machines,
			Servers:    machines,
			Assignment: assignment,
			Strategy:   cfg.Placement,
			Async:      cfg.Async,
		})
		if err != nil {
			return nil, err
		}
		plug := plugin.NewPS(cluster, cfg.Model, cfg.Policy)
		eng, err := engine.New(se, engCfg, plug)
		if err != nil {
			return nil, err
		}
		inst.eng = eng
		inst.setParams = plug.SetParams
		inst.collect = func(res *Result) error {
			res.LoadImbalance = cluster.LoadImbalance()
			res.PlannedImbalance = ps.Imbalance(cluster.PlannedLoad())
			res.Faults = fab.FaultStats()
			for w := 0; w < machines; w++ {
				res.UpStats = addStats(res.UpStats, plug.UpScheduler(w).Stats())
				res.DownStats = addStats(res.DownStats, plug.DownScheduler(w).Stats())
			}
			return nil
		}
	case AllReduce:
		ring, err := allreduce.New(se, machines, cfg.BandwidthGbps, cfg.Transport)
		if err != nil {
			return nil, err
		}
		ring.SetIntraNode(DefaultGPUsPerMachine, ncclIntraBytesPerSec)
		ring.SetAlgorithm(cfg.Collective)
		ring.SetTrace(cfg.Trace)
		plug := plugin.NewAllReduce(ring, cfg.Model, machines, cfg.Policy)
		eng, err := engine.New(se, engCfg, plug)
		if err != nil {
			return nil, err
		}
		inst.eng = eng
		inst.setParams = plug.SetParams
		inst.collect = func(res *Result) error {
			if plug.Outstanding() != 0 {
				return fmt.Errorf("runner: %d collectives never completed", plug.Outstanding())
			}
			res.UpStats = plug.Scheduler().Stats()
			return nil
		}
	default:
		return nil, fmt.Errorf("runner: unknown arch %d", int(cfg.Arch))
	}
	return inst, nil
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
func Run(cfg Config) (Result, error) { return runOn(sim.New(), cfg) }

// runOn is Run on a caller-owned simulator, so a test can read the event
// count of the trial it just ran.
func runOn(se *sim.Engine, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Metrics != nil && cfg.Trace == nil {
		cfg.Trace = trace.New()
	}
	if cfg.Cluster != nil {
		return runCluster(cfg)
	}
	inst, err := build(se, nil, cfg, engineConfig(cfg))
	if err != nil {
		return Result{}, err
	}
	inst.eng.Start()
	se.Run()
	if leaked := inst.eng.OutstandingGates(); leaked != 0 {
		return Result{}, fmt.Errorf("runner: %d communication gates never opened", leaked)
	}
	res := summarize(cfg, inst.eng.Result())
	res.GPUUtilization = inst.eng.GPUUtilization(0)
	if err := inst.collect(&res); err != nil {
		return Result{}, err
	}
	publishMetrics(cfg.Metrics, cfg, res, cfg.Trace)
	return res, nil
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
