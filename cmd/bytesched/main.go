// Command bytesched runs one simulated distributed-training configuration
// and reports its speed, optionally comparing against the vanilla baseline
// and linear scaling, auto-tuning the scheduler parameters, dumping a GPU
// timeline, and exposing run metrics for scraping.
//
// Examples:
//
//	bytesched -model VGG16 -arch ps -transport rdma -bw 100 -gpus 32
//	bytesched -model Transformer -arch nccl -policy p3
//	bytesched -model ResNet50 -tune 12
//	bytesched -model VGG16 -gantt -iters 4
//	bytesched -model VGG16 -metrics
//	bytesched -model VGG16 -http :8080   # then: curl localhost:8080/metrics
//	bytesched -backend ring -live-workers 3   # live ring all-reduce over TCP
//	bytesched -backend ps -policy fifo        # live parameter server, unscheduled
//	bytesched -backend ps -autotune           # online (partition, credit) tuning, no restarts
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"bytescheduler/internal/autotune"
	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/model"
	"bytescheduler/internal/network"
	"bytescheduler/internal/plugin"
	"bytescheduler/internal/ps"
	"bytescheduler/internal/runner"
	"bytescheduler/internal/stats"
	"bytescheduler/internal/trace"
	"bytescheduler/internal/tune"
)

// options collects every command-line knob. run takes the struct rather
// than a positional parameter list so new observability flags don't ripple
// through every call site.
type options struct {
	Model, Framework, Arch, Transport, Policy string
	// Assign selects the PS placement strategy (ps.ParseStrategy
	// spellings: round-robin, size-balanced/lpt, hash-ring).
	Assign string
	// Priority overrides how the policy orders tensors: layer, tictac
	// (critical-path over the DAG timing profile), or random (seeded
	// ablation). Empty keeps the policy's own order.
	Priority string
	// BW is the simulated link rate; on a live run, only when set on the
	// command line (bwSet), the shaped link every worker sends through.
	BW, PartMB, CreditMB       float64
	bwSet                      bool
	GPUs, Iters, Warmup, TuneN int
	Seed                       int64
	Jitter                     float64
	Async, Gantt               bool
	ChromeOut                  string
	// Metrics prints the run's metrics in Prometheus text format after the
	// summary.
	Metrics bool
	// HTTP, when non-empty, serves /metrics and /debug/pprof at this
	// address after the run completes (blocking until interrupted), so a
	// scraper or profiler can inspect the finished run.
	HTTP string
	// Cluster switches from a single training job to a multi-job cluster
	// scenario (internal/cluster): both the FIFO/uniform baseline and the
	// fair-share + delay-aware arm run on the same job population and the
	// comparison is printed. -metrics/-gantt/-chrome-trace attach to the
	// fair arm. ClusterJobs etc. size the scenario; -bw is the per-node
	// link rate and -seed drives job generation.
	Cluster                                 bool
	ClusterJobs, ClusterNodes, ClusterSlots int
	ClusterDelayMs, ClusterWindow           float64
	ClusterCredits                          int64
	// Backend, when non-empty, runs a *live* training loop over real
	// loopback TCP sockets instead of the simulator: "ps" (netps parameter
	// server) or "ring" (netar segmented ring all-reduce).
	Backend string
	// LiveWorkers is the live worker (ring peer / PS client) count.
	LiveWorkers int
	// LiveLayers is the live model's per-layer gradient sizes in KB,
	// comma-separated front to back.
	LiveLayers string
	// LiveCompute is the per-layer compute sleep for each pass.
	LiveCompute time.Duration
	// FuseTheta buckets live tensors smaller than this many bytes into one
	// fused message (0 disables fusion).
	FuseTheta int64
	// Codec names the live wire codec (compress.ParseCodec spellings).
	Codec string
	// AutoTune closes the online tuning loop on the live run: the
	// controller re-tunes (partition, credit) mid-run, no restarts.
	AutoTune bool
	// AutoTuneTrials / AutoTuneDwell / AutoTuneSuggester configure the
	// controller's search budget, hysteresis window, and algorithm.
	AutoTuneTrials, AutoTuneDwell int
	AutoTuneSuggester             string
	// serveStarted, when non-nil, is invoked with the bound address instead
	// of blocking in http.Serve — a hook for tests.
	serveStarted func(addr string)
}

func main() {
	var o options
	flag.StringVar(&o.Model, "model", "VGG16", "model: "+strings.Join(model.Names(), ", "))
	flag.StringVar(&o.Framework, "framework", "mxnet", "framework: mxnet, tensorflow, pytorch")
	flag.StringVar(&o.Arch, "arch", "ps", "gradient synchronization: ps or nccl")
	flag.StringVar(&o.Transport, "transport", "rdma", "transport: tcp or rdma")
	flag.Float64Var(&o.BW, "bw", 100, "per-direction bandwidth in Gbps (live runs: a shaped link, loopback when unset)")
	flag.IntVar(&o.GPUs, "gpus", 16, "total GPUs (multiple of 8)")
	flag.StringVar(&o.Policy, "policy", "bytescheduler", "policy: fifo, p3, tictac, bytescheduler")
	flag.StringVar(&o.Priority, "priority", "",
		"priority strategy override: layer, tictac (critical-path from DAG timings), random (empty keeps the policy's order)")
	flag.Float64Var(&o.PartMB, "partition", 2, "partition size in MB (bytescheduler policy)")
	flag.Float64Var(&o.CreditMB, "credit", 8, "credit size in MB (bytescheduler policy)")
	flag.BoolVar(&o.Async, "async", false, "asynchronous PS")
	flag.StringVar(&o.Assign, "assign", "round-robin",
		"PS placement strategy: "+strings.Join(ps.StrategyNames(), ", "))
	flag.IntVar(&o.Iters, "iters", 12, "iterations to simulate")
	flag.IntVar(&o.Warmup, "warmup", 2, "warmup iterations excluded from measurement")
	flag.Float64Var(&o.Jitter, "jitter", 0, "relative compute jitter, e.g. 0.02")
	flag.Int64Var(&o.Seed, "seed", 1, "random seed")
	flag.IntVar(&o.TuneN, "tune", 0, "auto-tune partition/credit with this many BO trials")
	flag.BoolVar(&o.Gantt, "gantt", false, "print an ASCII GPU timeline")
	flag.StringVar(&o.ChromeOut, "chrome-trace", "", "write a Chrome trace JSON to this file")
	flag.BoolVar(&o.Metrics, "metrics", false, "print run metrics in Prometheus text format")
	flag.StringVar(&o.HTTP, "http", "", "serve /metrics and /debug/pprof at this address after the run")
	flag.BoolVar(&o.Cluster, "cluster", false,
		"run a multi-job cluster scenario: FIFO/uniform baseline vs fair-share + delay-aware placement")
	flag.IntVar(&o.ClusterJobs, "cluster-jobs", 240, "cluster scenario job count (with -cluster)")
	flag.IntVar(&o.ClusterNodes, "cluster-nodes", 16, "cluster node count (with -cluster)")
	flag.IntVar(&o.ClusterSlots, "cluster-slots", 4, "worker slots per node (with -cluster)")
	flag.Float64Var(&o.ClusterDelayMs, "cluster-delay-ms", 2,
		"max per-node network delay in ms, ramped across nodes (with -cluster)")
	flag.Int64Var(&o.ClusterCredits, "cluster-credits", 512,
		"cluster-wide credit pool in in-flight tensors (with -cluster)")
	flag.Float64Var(&o.ClusterWindow, "cluster-window", 60,
		"job arrival window in seconds (with -cluster)")
	flag.StringVar(&o.Backend, "backend", "", "live transport over real TCP instead of simulation: ps or ring")
	flag.IntVar(&o.LiveWorkers, "live-workers", 3, "live worker count (with -backend)")
	flag.StringVar(&o.LiveLayers, "live-layers", "64,128,256,256,512,512",
		"live per-layer gradient KB, front to back (with -backend)")
	flag.DurationVar(&o.LiveCompute, "live-compute", 500*time.Microsecond,
		"live per-layer compute sleep per pass (with -backend)")
	flag.Int64Var(&o.FuseTheta, "fuse-theta", 0,
		"live fusion threshold in bytes: smaller tensors ride one fused message (0 disables; with -backend)")
	flag.StringVar(&o.Codec, "codec", "",
		"live wire codec: none, fp16, int8, topk:<keep> (with -backend)")
	flag.BoolVar(&o.AutoTune, "autotune", false,
		"tune (partition, credit) online during the live run, starting from -partition/-credit (with -backend)")
	flag.IntVar(&o.AutoTuneTrials, "autotune-trials", 0,
		"online tuning probes per search episode (0 = controller default)")
	flag.IntVar(&o.AutoTuneDwell, "autotune-dwell", 0,
		"iterations each probed config is measured for (0 = controller default)")
	flag.StringVar(&o.AutoTuneSuggester, "autotune-suggester", "bo",
		"online tuning search algorithm: bo, grid, random")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { o.bwSet = o.bwSet || f.Name == "bw" })
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bytesched:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.Backend != "" {
		return runLive(o)
	}
	if o.Cluster {
		return runCluster(o)
	}
	m, err := model.ByName(o.Model)
	if err != nil {
		return err
	}
	fw, err := plugin.FrameworkByName(o.Framework)
	if err != nil {
		return err
	}
	prof, err := network.ProfileByName(o.Transport)
	if err != nil {
		return err
	}
	var a runner.Arch
	switch strings.ToLower(o.Arch) {
	case "ps":
		a = runner.PS
	case "nccl", "allreduce", "all-reduce":
		a = runner.AllReduce
	default:
		return fmt.Errorf("unknown arch %q", o.Arch)
	}
	placement, err := ps.ParseStrategy(o.Assign)
	if err != nil {
		return err
	}

	cfg := runner.Config{
		Model:         m,
		Framework:     fw,
		Arch:          a,
		Transport:     prof,
		BandwidthGbps: o.BW,
		GPUs:          o.GPUs,
		Iterations:    o.Iters,
		Warmup:        o.Warmup,
		Jitter:        o.Jitter,
		Seed:          o.Seed,
		Async:         o.Async,
		Placement:     placement,
	}

	switch strings.ToLower(o.Policy) {
	case "fifo":
		cfg.Policy = core.FIFO()
	case "p3":
		cfg.Policy = core.P3()
		cfg.Scheduled = true
	case "tictac":
		cfg.Policy = core.Policy{Name: "tictac"}
		cfg.Priority = core.PriorityCriticalPath
		cfg.Scheduled = true
	case "bytescheduler", "bs":
		cfg.Policy = core.ByteScheduler(int64(o.PartMB*(1<<20)), int64(o.CreditMB*(1<<20)))
		cfg.Scheduled = true
	default:
		return fmt.Errorf("unknown policy %q", o.Policy)
	}
	if o.Priority != "" {
		if cfg.Priority, err = core.ParsePriorityPolicy(o.Priority); err != nil {
			return err
		}
	}

	if o.TuneN > 0 {
		fmt.Printf("auto-tuning %s with %d BO trials...\n", cfg.Name(), o.TuneN)
		res := tune.PartitionCredit(tune.NewBO(tune.ParamBounds(), o.Seed),
			func(p, c int64) float64 {
				speed, err := runner.SpeedWithParams(cfg, p, c)
				if err != nil {
					return 0
				}
				return speed
			}, o.TuneN)
		fmt.Printf("best: partition=%.1fMB credit=%.1fMB -> %.0f %s/s\n",
			float64(res.Partition)/(1<<20), float64(res.Credit)/(1<<20), res.Speed, m.SampleUnit)
		cfg.Policy = core.ByteScheduler(res.Partition, res.Credit)
		cfg.Scheduled = true
	}

	var rec *trace.Recorder
	if o.Gantt || o.ChromeOut != "" {
		rec = trace.New()
		cfg.Trace = rec
	}
	var reg *metrics.Registry
	if o.Metrics || o.HTTP != "" {
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}

	res, err := runner.Run(cfg)
	if err != nil {
		return err
	}

	baseCfg := cfg
	baseCfg.Policy = core.FIFO()
	baseCfg.Scheduled = false
	baseCfg.Trace = nil
	baseCfg.Metrics = nil
	base, err := runner.Run(baseCfg)
	if err != nil {
		return err
	}
	linear := runner.LinearScaling(cfg)

	fmt.Printf("%s, policy=%s\n", cfg.Name(), cfg.Policy.Name)
	fmt.Printf("  speed:     %10.0f %s/s  (iter %.1f ms)\n", res.SamplesPerSec, m.SampleUnit, res.IterTime*1e3)
	fmt.Printf("  baseline:  %10.0f %s/s  (iter %.1f ms)\n", base.SamplesPerSec, m.SampleUnit, base.IterTime*1e3)
	fmt.Printf("  linear:    %10.0f %s/s\n", linear, m.SampleUnit)
	fmt.Printf("  speedup:   %+9.1f%% over baseline, %.0f%% of linear\n",
		(res.SamplesPerSec-base.SamplesPerSec)/base.SamplesPerSec*100,
		res.SamplesPerSec/linear*100)
	fmt.Printf("  GPU util:  %9.0f%% compute (rest is communication stall)\n", res.GPUUtilization*100)
	if a == runner.PS {
		fmt.Printf("  PS load:   max/mean %.2f observed, %.2f planned (%s placement)\n",
			res.LoadImbalance, res.PlannedImbalance, placement)
	}
	fmt.Printf("  scheduler: %d partitions sent, %d preemptions\n",
		res.UpStats.SubsStarted+res.DownStats.SubsStarted,
		res.UpStats.Preemptions+res.DownStats.Preemptions)

	if o.Gantt {
		fmt.Println()
		fmt.Print(rec.Gantt(100))
	}
	if o.ChromeOut != "" {
		f, err := os.Create(o.ChromeOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteChromeTrace(f); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s\n", o.ChromeOut)
	}
	if o.Metrics {
		fmt.Println()
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	if o.HTTP != "" {
		return serveMetrics(o, reg)
	}
	return nil
}

// livePolicy maps the -policy and -priority flags onto a live scheduling
// policy plus the priority strategy the runner materializes from the run's
// layer profile.
func livePolicy(o options) (core.Policy, core.PriorityPolicy, error) {
	var pol core.Policy
	prio := core.PriorityDefault
	switch strings.ToLower(o.Policy) {
	case "fifo":
		pol = runner.LiveFIFO()
	case "p3":
		pol = core.P3()
	case "tictac":
		pol = core.Policy{Name: "tictac"}
		prio = core.PriorityCriticalPath
	case "bytescheduler", "bs":
		pol = core.ByteScheduler(int64(o.PartMB*(1<<20)), int64(o.CreditMB*(1<<20)))
	default:
		return core.Policy{}, prio, fmt.Errorf("unknown policy %q", o.Policy)
	}
	if o.Priority != "" {
		var err error
		if prio, err = core.ParsePriorityPolicy(o.Priority); err != nil {
			return core.Policy{}, prio, err
		}
	}
	return pol, prio, nil
}

// parseLiveLayers parses the -live-layers KB list into per-layer bytes.
func parseLiveLayers(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kb, err := strconv.ParseFloat(part, 64)
		if err != nil || kb <= 0 {
			return nil, fmt.Errorf("bad layer size %q (want positive KB)", part)
		}
		b := int64(kb*1024) / 4 * 4 // fp32-align
		if b < 4 {
			b = 4
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no layers in %q", s)
	}
	return out, nil
}

// liveConfig builds the live run's configuration from the flags.
func liveConfig(o options) (runner.LiveConfig, error) {
	backend, err := runner.ParseLiveBackend(o.Backend)
	if err != nil {
		return runner.LiveConfig{}, err
	}
	layers, err := parseLiveLayers(o.LiveLayers)
	if err != nil {
		return runner.LiveConfig{}, err
	}
	policy, priority, err := livePolicy(o)
	if err != nil {
		return runner.LiveConfig{}, err
	}
	codec, err := compress.ParseCodec(o.Codec)
	if err != nil {
		return runner.LiveConfig{}, err
	}
	cfg := runner.LiveConfig{
		Backend:         backend,
		Workers:         o.LiveWorkers,
		LayerBytes:      layers,
		Policy:          policy,
		Priority:        priority,
		Iterations:      max(o.Iters, o.Warmup+2),
		Warmup:          o.Warmup,
		ForwardCompute:  o.LiveCompute,
		BackwardCompute: o.LiveCompute,
		Seed:            o.Seed,
		FuseTheta:       o.FuseTheta,
		Codec:           codec,
	}
	if o.bwSet {
		cfg.Shape = []runner.LinkShape{{Gbps: o.BW}}
	}
	if o.AutoTune {
		cfg.AutoTune = &autotune.Config{
			Suggester:  o.AutoTuneSuggester,
			Seed:       o.Seed,
			DwellIters: o.AutoTuneDwell,
			Trials:     o.AutoTuneTrials,
		}
		// Stretch the run so one whole search episode and three steady
		// windows fit: the controller's warmup, every window's transition
		// iteration and dwell, and the one iteration of pin skew a live
		// worker's forward pass allows.
		cfg.Iterations = max(cfg.Iterations, cfg.AutoTune.BudgetIters(3, 1))
	}
	return cfg, nil
}

// runLive executes a live training loop over real loopback sockets (-backend)
// and reports wall-clock speed against the unscheduled FIFO baseline on the
// same topology.
func runLive(o options) error {
	cfg, err := liveConfig(o)
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	if o.ChromeOut != "" {
		rec = trace.New()
		cfg.Trace = trace.NewWall(rec)
	}
	var reg *metrics.Registry
	if o.Metrics || o.HTTP != "" {
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}

	res, err := runner.RunLive(cfg)
	if err != nil {
		return err
	}
	baseCfg := cfg
	baseCfg.Policy = runner.LiveFIFO()
	baseCfg.Priority = core.PriorityDefault // vanilla emission order
	baseCfg.Trace = nil
	baseCfg.Metrics = nil
	baseCfg.AutoTune = nil // the unscheduled baseline has no knobs to tune
	base, err := runner.RunLive(baseCfg)
	if err != nil {
		return err
	}

	var total int64
	for _, b := range cfg.LayerBytes {
		total += b
	}
	policy := cfg.Policy.Name
	fmt.Printf("live %s x%d workers, %d layers (%.0f KB), policy=%s\n",
		cfg.Backend, cfg.Workers, len(cfg.LayerBytes), float64(total)/1024, policy)
	if cfg.FuseTheta > 0 || !cfg.Codec.IsIdentity() {
		fmt.Printf("  wire:      fuse-theta=%d B, codec=%s\n", cfg.FuseTheta, cfg.Codec.Name())
	}
	if cfg.Priority != core.PriorityDefault {
		fmt.Printf("  schedule:  priority=%s\n", cfg.Priority)
	}
	if len(cfg.Shape) > 0 {
		fmt.Printf("  link:      %g Gbps shaped\n", cfg.Shape[0].Gbps)
	}
	fmt.Printf("  iter:      %10.2f ms  (%s; exposed comm p50 %.2f ms)\n", res.IterTime*1e3, policy, stats.Percentile(res.ExposedComm, 50)*1e3)
	fmt.Printf("  baseline:  %10.2f ms  (fifo; exposed comm p50 %.2f ms)\n", base.IterTime*1e3, stats.Percentile(base.ExposedComm, 50)*1e3)
	fmt.Printf("  speedup:   %+9.1f%% over unscheduled\n", (base.IterTime-res.IterTime)/res.IterTime*100)
	fmt.Printf("  scheduler: %d partitions sent, %d preemptions\n",
		res.Stats.SubsStarted, res.Stats.Preemptions)
	if rep := res.AutoTune; rep != nil {
		fmt.Printf("  autotune:  %d probes, %d retune(s), %d rollback(s) across %d episode(s) (%s suggester)\n",
			rep.Probes, rep.Retunes, rep.Rollbacks, rep.Episodes, o.AutoTuneSuggester)
		fmt.Printf("             best %v at %.1f it/s, final %v, settled=%v\n",
			rep.Best, rep.BestSpeed, rep.Final, rep.Settled)
	}

	if o.ChromeOut != "" {
		f, err := os.Create(o.ChromeOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteChromeTrace(f); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s\n", o.ChromeOut)
	}
	if o.Metrics {
		fmt.Println()
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	if o.HTTP != "" {
		return serveMetrics(o, reg)
	}
	return nil
}

// serveMetrics exposes the run's metrics and the Go profiler over HTTP:
// /metrics in the Prometheus text format, /debug/pprof/* from
// net/http/pprof. It blocks in http.Serve unless a test hook is installed.
func serveMetrics(o options, reg *metrics.Registry) error {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", o.HTTP)
	if err != nil {
		return err
	}
	fmt.Printf("serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
	if o.serveStarted != nil {
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln) //nolint:errcheck // shut down by the test via the listener
		o.serveStarted(ln.Addr().String())
		return nil
	}
	return http.Serve(ln, mux)
}
