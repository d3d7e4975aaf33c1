// Package bytescheduler is a Go reproduction of "A Generic Communication
// Scheduler for Distributed DNN Training Acceleration" (ByteScheduler,
// SOSP 2019).
//
// It provides two public surfaces:
//
//   - A live, goroutine-safe tensor scheduler (NewScheduler) implementing
//     the paper's core algorithm — unified CommTask abstraction, tensor
//     partitioning, priority queueing with credit-based preemption — for
//     embedding in real communication stacks.
//
//   - A deterministic simulation harness (Run, Tune, Linear) reproducing
//     the paper's evaluation: simulated MXNet/TensorFlow/PyTorch engines,
//     PS and ring all-reduce substrates, TCP/RDMA transports, and the
//     Bayesian-Optimization auto-tuner for partition and credit sizes.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced tables and figures.
package bytescheduler

import (
	"bytescheduler/internal/allreduce"
	"bytescheduler/internal/autotune"
	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
	"bytescheduler/internal/network"
	"bytescheduler/internal/plugin"
	"bytescheduler/internal/ps"
	"bytescheduler/internal/runner"
	"bytescheduler/internal/tune"
)

// Transport selects the network stack.
type Transport int

const (
	// TCP is the kernel TCP/IP stack profile.
	TCP Transport = iota
	// RDMA is the kernel-bypass RDMA profile.
	RDMA
)

// String returns the transport name.
func (t Transport) String() string {
	if t == RDMA {
		return "RDMA"
	}
	return "TCP"
}

func (t Transport) profile() network.Profile {
	if t == RDMA {
		return network.RDMA()
	}
	return network.TCP()
}

// Arch selects the gradient synchronization architecture.
type Arch int

const (
	// PS is the parameter-server architecture.
	PS Arch = iota
	// AllReduce is ring all-reduce (NCCL-style).
	AllReduce
)

// String returns the architecture name.
func (a Arch) String() string {
	if a == AllReduce {
		return "NCCL"
	}
	return "PS"
}

func (a Arch) runnerArch() runner.Arch {
	if a == AllReduce {
		return runner.AllReduce
	}
	return runner.PS
}

// Framework selects the simulated training framework.
type Framework int

const (
	// MXNet gates each layer on its own communication (no global
	// barrier).
	MXNet Framework = iota
	// TensorFlow has an inter-iteration global barrier.
	TensorFlow
	// PyTorch has an inter-iteration global barrier.
	PyTorch
)

// String returns the framework name.
func (f Framework) String() string { return f.plugin().String() }

func (f Framework) plugin() plugin.Framework {
	switch f {
	case TensorFlow:
		return plugin.TensorFlow
	case PyTorch:
		return plugin.PyTorch
	default:
		return plugin.MXNet
	}
}

// Policy is a communication scheduling policy.
type Policy struct {
	p         core.Policy
	scheduled bool
	// priority, when not PriorityDefault, derives the scheduling order
	// from the model's DAG timing profile at run time (runner.Config.
	// Priority) instead of a fixed PriorityFn on p.
	priority core.PriorityPolicy
}

// Vanilla returns the baseline policy of unmodified frameworks: FIFO order,
// no partitioning, no barrier crossing.
func Vanilla() Policy { return Policy{p: core.FIFO()} }

// P3 returns the policy of the P3 scheduler (Jayarajan et al.): 160 KB
// partitions with stop-and-wait transmission and layer priority.
func P3() Policy { return Policy{p: core.P3(), scheduled: true} }

// TicTac returns a priority-only policy without partitioning, approximating
// TicTac: scheduling order comes from critical-path analysis of the model's
// DAG timing profile (core.DAGTimings), not from the raw layer index.
func TicTac() Policy {
	return Policy{
		p:         core.Policy{Name: "tictac"},
		scheduled: true,
		priority:  core.PriorityCriticalPath,
	}
}

// WithPartitionCredit returns the ByteScheduler policy with explicit
// partition and credit sizes in bytes.
func WithPartitionCredit(partition, credit int64) Policy {
	return Policy{p: core.ByteScheduler(partition, credit), scheduled: true}
}

// WithMaxRetries returns a copy of the policy whose scheduler requeues each
// failed partition up to n times before declaring the task failed. Only
// meaningful for live schedulers whose CommTasks use StartErr.
func (p Policy) WithMaxRetries(n int) Policy {
	p.p = p.p.WithMaxRetries(n)
	return p
}

// Name returns the policy name, e.g. "bytescheduler".
func (p Policy) Name() string { return p.p.Name }

// FaultInjection describes deterministic fabric degradation applied to a
// simulated run: frame drops paid for with retransmission timeouts, latency
// spikes, and transient link outages. Faults surface as time, never loss —
// the fabric keeps its reliable in-order delivery contract, exactly as a
// retransmitting transport presents failures to the application. Supported
// on the PS fabric only (the collective substrate is analytic).
type FaultInjection struct {
	// Seed drives all fault draws; the same seed reproduces the same run.
	Seed int64
	// DropProb is the per-transmission frame-loss probability; each loss
	// adds RetransmitDelay (default: a TCP minimum RTO) to the message.
	DropProb        float64
	RetransmitDelay float64
	// SpikeProb and SpikeSec inject latency spikes (incast, GC pauses).
	SpikeProb float64
	SpikeSec  float64
	// Outages are transient windows during which a node's links carry no
	// new messages. PS fabric nodes are [0, machines) for workers and
	// [machines, 2*machines) for server shards.
	Outages []LinkOutage
}

// LinkOutage is one transient link failure at a fabric node.
type LinkOutage struct {
	Node            int
	Start, Duration float64
}

func (fi *FaultInjection) config() *network.FaultConfig {
	if fi == nil {
		return nil
	}
	fc := &network.FaultConfig{
		Seed:            fi.Seed,
		DropProb:        fi.DropProb,
		RetransmitDelay: fi.RetransmitDelay,
		SpikeProb:       fi.SpikeProb,
		SpikeSec:        fi.SpikeSec,
	}
	for _, o := range fi.Outages {
		fc.Outages = append(fc.Outages, network.Outage{
			Node: o.Node, Start: o.Start, Duration: o.Duration,
		})
	}
	return fc
}

// Experiment describes one simulated training configuration.
type Experiment struct {
	// Model is a zoo model name: VGG16, VGG19, ResNet50, Transformer,
	// AlexNet.
	Model string
	// Framework, Arch, Transport select the setup (§6.1's "8 different
	// setups").
	Framework Framework
	Arch      Arch
	Transport Transport
	// BandwidthGbps is the per-direction NIC speed (paper: 1–100).
	BandwidthGbps float64
	// GPUs is the total GPU count; a multiple of 8 (8 GPUs per machine).
	GPUs int
	// Policy selects the scheduler; Vanilla() for the baseline.
	Policy Policy
	// Priority overrides how the scheduler orders tensors: "" keeps the
	// policy's own order, "layer" ranks by layer index, "tictac" (or
	// "critical-path") ranks by remaining critical-path length from the
	// model's DAG timing profile, "random" is the seeded ablation arm.
	Priority string
	// AsyncPS enables asynchronous PS training.
	AsyncPS bool
	// Collective selects the all-reduce algorithm: "" or "ring",
	// "halving-doubling"/"hd", "double-tree"/"tree". Ignored for PS.
	Collective string
	// Compression enables gradient compression, spelled as the live
	// -codec flag is: "" or "none", "fp16", "int8", or "topk:<keep>" such
	// as "topk:0.01" (case-insensitive). Composes with scheduling (§8).
	Compression string
	// Assignment selects the PS placement strategy over tensors (or
	// partitions, once the policy partitions): "" or "round-robin" (the
	// paper's baseline), "size-balanced"/"lpt" (online greedy LPT that
	// fixes §6.2's load imbalance), or "hash-ring" (consistent hashing:
	// one more server moves only the units it takes). Ignored for
	// all-reduce.
	Assignment string
	// Iterations and Warmup control measurement; zero selects defaults.
	Iterations, Warmup int
	// Jitter adds relative compute noise (e.g. 0.02); Seed seeds it.
	Jitter float64
	Seed   int64
	// Faults, if non-nil, degrades the fabric deterministically (PS only);
	// see FaultInjection.
	Faults *FaultInjection
	// Metrics, if non-nil, receives the run's counters, gauges and span
	// histograms — the same metric names a live scheduler publishes, so sim
	// and live scrapes are directly comparable.
	Metrics *Metrics
	// Trace, if non-nil, records the run's compute and network spans for
	// Chrome-trace export (TraceRecorder.WriteChromeTrace). The simulated
	// timeline uses the identical schema as a live trace.
	Trace *TraceRecorder
}

// Measurement is the outcome of one experiment.
type Measurement struct {
	// SamplesPerSec is the aggregate training speed.
	SamplesPerSec float64
	// SampleUnit is "images" or "tokens".
	SampleUnit string
	// IterTime is the steady-state iteration time in seconds.
	IterTime float64
	// LoadImbalance is the PS max/mean load ratio (0 for all-reduce).
	LoadImbalance float64
	// PlannedImbalance is max/mean of the placement's planned per-server
	// bytes (0 for all-reduce): the assigner's skew before traffic
	// effects. Comparing it with LoadImbalance separates placement error
	// from big-array striping and aggregation effects.
	PlannedImbalance float64
	// Preemptions counts priority preemptions performed by the scheduler.
	Preemptions uint64
	// Retransmits, Spikes and OutageDeferred count injected fabric faults
	// (all zero when Experiment.Faults is nil).
	Retransmits, Spikes, OutageDeferred uint64
}

// parseCompression reads a compression spec in the live -codec vocabulary
// (compress.ParseCodec) and returns the simulated compressor for it, nil for
// the identity.
func parseCompression(spec string) (*compress.Compressor, error) {
	codec, err := compress.ParseCodec(spec)
	if err != nil {
		return nil, err
	}
	var c compress.Compressor
	switch codec.ID() {
	case compress.CodecIdentity:
		return nil, nil
	case compress.CodecFP16:
		c = compress.NewFP16()
	case compress.CodecInt8:
		c = compress.NewInt8()
	default:
		c = compress.NewTopK(0)
	}
	c.Codec = codec // the parsed codec, top-k keep ratio included
	return &c, nil
}

func (e Experiment) runnerConfig() (runner.Config, error) {
	m, err := model.ByName(e.Model)
	if err != nil {
		return runner.Config{}, err
	}
	collective := allreduce.RingAlgo
	if e.Collective != "" {
		collective, err = allreduce.AlgorithmByName(e.Collective)
		if err != nil {
			return runner.Config{}, err
		}
	}
	compression, err := parseCompression(e.Compression)
	if err != nil {
		return runner.Config{}, err
	}
	placement, err := ps.ParseStrategy(e.Assignment)
	if err != nil {
		return runner.Config{}, err
	}
	priority := e.Policy.priority
	if e.Priority != "" {
		priority, err = core.ParsePriorityPolicy(e.Priority)
		if err != nil {
			return runner.Config{}, err
		}
	}
	return runner.Config{
		Model:         m,
		Framework:     e.Framework.plugin(),
		Arch:          e.Arch.runnerArch(),
		Transport:     e.Transport.profile(),
		BandwidthGbps: e.BandwidthGbps,
		GPUs:          e.GPUs,
		Policy:        e.Policy.p,
		Scheduled:     e.Policy.scheduled,
		Priority:      priority,
		Async:         e.AsyncPS,
		Collective:    collective,
		Compression:   compression,
		Placement:     placement,
		Iterations:    e.Iterations,
		Warmup:        e.Warmup,
		Jitter:        e.Jitter,
		Seed:          e.Seed,
		Faults:        e.Faults.config(),
		Metrics:       e.Metrics.registry(),
		Trace:         e.Trace.recorder(),
	}, nil
}

// Run executes the experiment and returns its measured speed.
func Run(e Experiment) (Measurement, error) {
	cfg, err := e.runnerConfig()
	if err != nil {
		return Measurement{}, err
	}
	res, err := runner.Run(cfg)
	if err != nil {
		return Measurement{}, err
	}
	return Measurement{
		SamplesPerSec:    res.SamplesPerSec,
		SampleUnit:       cfg.Model.SampleUnit,
		IterTime:         res.IterTime,
		LoadImbalance:    res.LoadImbalance,
		PlannedImbalance: res.PlannedImbalance,
		Preemptions:      res.UpStats.Preemptions + res.DownStats.Preemptions,
		Retransmits:      res.Faults.Retransmits,
		Spikes:           res.Faults.Spikes,
		OutageDeferred:   res.Faults.OutageDeferred,
	}, nil
}

// Linear returns the linear-scalability reference speed for the
// experiment's model and GPU count.
func Linear(e Experiment) (float64, error) {
	cfg, err := e.runnerConfig()
	if err != nil {
		return 0, err
	}
	return runner.LinearScaling(cfg), nil
}

// TuneResult is an auto-tuning outcome.
type TuneResult struct {
	// Partition and Credit are the best sizes found, in bytes.
	Partition, Credit int64
	// SamplesPerSec is the speed at the tuned configuration.
	SamplesPerSec float64
	// Trials is the number of profiled configurations.
	Trials int
}

// Tune runs the paper's Bayesian-Optimization auto-tuner on the
// experiment's setup, searching partition and credit sizes over the given
// number of trials, and returns the best configuration found.
func Tune(e Experiment, trials int, seed int64) (TuneResult, error) {
	cfg, err := e.runnerConfig()
	if err != nil {
		return TuneResult{}, err
	}
	var firstErr error
	objective := func(p, c int64) float64 {
		speed, err := runner.SpeedWithParams(cfg, p, c)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return speed
	}
	res := tune.PartitionCredit(tune.NewBO(tune.ParamBounds(), seed), objective, trials)
	if firstErr != nil {
		return TuneResult{}, firstErr
	}
	return TuneResult{
		Partition:     res.Partition,
		Credit:        res.Credit,
		SamplesPerSec: res.Speed,
		Trials:        res.Trials,
	}, nil
}

// OnlineTuneResult is the outcome of tuning on a live run.
type OnlineTuneResult struct {
	// Partition and Credit are the best sizes found, in bytes.
	Partition, Credit int64
	// FirstSpeed is the speed at the starting configuration; FinalSpeed
	// the speed after tuning.
	FirstSpeed, FinalSpeed float64
	// Restarts counts PS checkpoint-restarts caused by partition changes;
	// OverheadSec is their total cost.
	Restarts    int
	OverheadSec float64
}

// TuneOnline tunes partition and credit sizes on a single continuous
// training run — the paper's deployed mechanism (§4.3/§5). The tuner is
// the online controller the live path runs (warmup, dwell windows, guarded
// rollback, settle), fed the simulator's virtual iteration times and
// proposing through Bayesian Optimization. The experiment's Policy
// provides the starting point and must be a partitioned scheduler policy
// (e.g. WithPartitionCredit); trials is the number of proposals probed.
func TuneOnline(e Experiment, trials int, seed int64) (OnlineTuneResult, error) {
	cfg, err := e.runnerConfig()
	if err != nil {
		return OnlineTuneResult{}, err
	}
	res, err := runner.RunOnlineTuned(runner.OnlineConfig{
		Config:         cfg,
		AutoTune:       autotune.Config{Trials: trials, Seed: seed},
		RestartPenalty: 5,
	})
	if err != nil {
		return OnlineTuneResult{}, err
	}
	return OnlineTuneResult{
		Partition:   res.Report.Final.Partition,
		Credit:      res.Report.Final.Credit,
		FirstSpeed:  res.FirstSpeed,
		FinalSpeed:  res.FinalSpeed,
		Restarts:    res.Restarts,
		OverheadSec: res.TuningOverhead,
	}, nil
}

// Models returns the registered model names.
func Models() []string { return model.Names() }

// ModelInfo summarizes a zoo model.
type ModelInfo struct {
	// Name is the canonical model name.
	Name string
	// Layers is the number of schedulable layers.
	Layers int
	// Params is the parameter count.
	Params int64
	// Bytes is the gradient/parameter volume per iteration.
	Bytes int64
	// BatchPerGPU is the default per-GPU batch size.
	BatchPerGPU int
	// SampleUnit is "images" or "tokens".
	SampleUnit string
}

// Info returns facts about a zoo model.
func Info(name string) (ModelInfo, error) {
	m, err := model.ByName(name)
	if err != nil {
		return ModelInfo{}, err
	}
	return ModelInfo{
		Name:        m.Name,
		Layers:      m.NumLayers(),
		Params:      m.Params(),
		Bytes:       m.TotalBytes(),
		BatchPerGPU: m.BatchPerGPU,
		SampleUnit:  m.SampleUnit,
	}, nil
}

// Speedup returns the percentage by which b is faster than a.
func Speedup(a, b Measurement) float64 {
	if a.SamplesPerSec == 0 {
		return 0
	}
	return (b.SamplesPerSec - a.SamplesPerSec) / a.SamplesPerSec * 100
}
