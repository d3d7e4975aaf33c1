// Package engine simulates ML framework execution engines running
// data-parallel DNN training: the layer-wise computation/communication DAG
// of the paper's Figure 1.
//
// One executor runs every framework. Each worker executes its operations in
// program order — the forward pass layer by layer, then the backward pass in
// reverse — on its own GPU. A forward pre-hook blocks each layer until that
// layer's communication from the previous iteration has completed, and a
// backward hook announces each gradient as it is produced: together they are
// the paper's Dependency Proxy (§3.3), which is why MXNet's and TensorFlow's
// declarative graphs and PyTorch's imperative loop present the same chain
// DAG to the scheduler (Opportunity 1). Frameworks differ only in the
// DependencyMode: whether the next iteration waits per layer or behind a
// global barrier (Figure 3).
//
// Communication itself is delegated to a CommHook — the plugin boundary.
// The engine calls GradientReady when a layer's gradient is available
// (backward op finished plus intra-machine aggregation); the hook must call
// the provided done function when the layer's synchronized parameters are
// available again, which opens the gate the next iteration's forward pass
// waits on.
package engine

import (
	"fmt"

	"bytescheduler/internal/model"
	"bytescheduler/internal/sim"
	"bytescheduler/internal/stats"
	"bytescheduler/internal/trace"
)

// DependencyMode selects how the next iteration's forward pass depends on
// communication.
type DependencyMode int

const (
	// PerLayer gates each forward op on its own layer's communication
	// (MXNet's native behavior; TensorFlow/PyTorch after ByteScheduler
	// crosses the global barrier with layer-wise out-of-engine
	// dependencies, §3.4).
	PerLayer DependencyMode = iota
	// GlobalBarrier gates the whole next iteration on all of this
	// iteration's communication (vanilla TensorFlow/PyTorch, Figure 3),
	// which makes communication scheduling largely ineffective.
	GlobalBarrier
)

// String returns the dependency-mode name.
func (d DependencyMode) String() string {
	switch d {
	case PerLayer:
		return "per-layer"
	case GlobalBarrier:
		return "global-barrier"
	}
	return fmt.Sprintf("DependencyMode(%d)", int(d))
}

// CommHook is the plugin boundary: it receives gradient-ready notifications
// and must signal parameter availability.
type CommHook interface {
	// GradientReady announces that worker's gradient for layer in
	// iteration iter is available for communication. The hook must invoke
	// done exactly once, when the synchronized parameters for that layer
	// are available on that worker again.
	GradientReady(worker, layer, iter int, done func())
}

// CommHookFunc adapts a function to the CommHook interface.
type CommHookFunc func(worker, layer, iter int, done func())

// GradientReady calls the function.
func (f CommHookFunc) GradientReady(worker, layer, iter int, done func()) {
	f(worker, layer, iter, done)
}

// Config describes one training run.
type Config struct {
	// Model is the DNN to train.
	Model *model.Model
	// Workers is the number of communicating training processes (machines
	// in PS setups, ring members in all-reduce setups).
	Workers int
	// Dependency selects per-layer gating or the global barrier.
	Dependency DependencyMode
	// Iterations is the number of training iterations to run.
	Iterations int
	// LocalAggSecPerByte is the intra-machine gradient aggregation cost
	// (e.g. 8 GPUs reducing over PCIe before the NIC sees the tensor).
	LocalAggSecPerByte float64
	// Jitter is the relative uniform jitter applied to every compute op
	// duration (0 disables). Workers drift apart realistically, which
	// exercises all-reduce straggler behavior and gives the auto-tuner a
	// noisy objective.
	Jitter float64
	// Seed seeds the jitter RNG.
	Seed int64
	// Trace, if non-nil, records GPU spans.
	Trace *trace.Recorder
	// OnIteration, if non-nil, fires when worker 0 begins each
	// iteration's forward pass — the hook the runtime auto-tuner uses to
	// delimit profiling windows.
	OnIteration func(iter int, at float64)
}

// validate reports configuration errors.
func (c Config) validate() error {
	if c.Model == nil {
		return fmt.Errorf("engine: nil model")
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Workers <= 0 {
		return fmt.Errorf("engine: need at least one worker, got %d", c.Workers)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("engine: need at least one iteration, got %d", c.Iterations)
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("engine: jitter %v out of [0,1)", c.Jitter)
	}
	if c.LocalAggSecPerByte < 0 {
		return fmt.Errorf("engine: negative local aggregation cost")
	}
	switch c.Dependency {
	case PerLayer, GlobalBarrier:
	default:
		return fmt.Errorf("engine: unknown dependency mode %d", int(c.Dependency))
	}
	return nil
}

// Result summarizes a completed run.
type Result struct {
	// FPStarts[t] is the time worker 0's forward pass of iteration t
	// began.
	FPStarts []float64
	// Finish is the time the final worker finished the final iteration's
	// backward pass (communication may drain slightly later).
	Finish float64
	// Iterations echoes the configured iteration count.
	Iterations int
}

// AvgIterTime returns the steady-state iteration time measured between
// forward-pass starts, skipping warmup iterations.
func (r Result) AvgIterTime(warmup int) float64 {
	if warmup < 0 {
		warmup = 0
	}
	last := len(r.FPStarts) - 1
	if last <= warmup {
		if r.Iterations > 0 {
			return r.Finish / float64(r.Iterations)
		}
		return 0
	}
	return (r.FPStarts[last] - r.FPStarts[warmup]) / float64(last-warmup)
}

// gate is a one-shot condition with one waiter, the forward op it holds
// back: a Dependency Proxy's completion side.
type gate struct {
	open   bool
	waiter func()
}

func (g *gate) wait(fn func()) {
	switch {
	case g.open:
		fn()
	case g.waiter != nil:
		panic("engine: gate waited on twice")
	default:
		g.waiter = fn
	}
}

func (g *gate) fire() {
	if g.open {
		panic("engine: gate fired twice")
	}
	g.open = true
	if fn := g.waiter; fn != nil {
		g.waiter = nil
		fn()
	}
}

// workerState holds one worker's execution context.
type workerState struct {
	id  int
	gpu *sim.Server
	ops []op // forward ops, then backward ops, by layer
	// commGates[t*layers+i] opens when layer i's communication of
	// iteration t has completed on this worker.
	commGates []gate
	// barrier[t] opens when all of iteration t's communication completed
	// (GlobalBarrier mode).
	barrier []gate
	// barrierRemaining[t] counts unfinished layer communications.
	barrierRemaining []int
}

// commGate returns the gate of layer's communication in iteration iter.
func (ws *workerState) commGate(iter, layer, layers int) *gate {
	return &ws.commGates[iter*layers+layer]
}

// Engine executes a training run on a shared simulator.
type Engine struct {
	sim  *sim.Engine
	cfg  Config
	hook CommHook
	rng  *stats.RNG

	fp, bp     []float64
	layerBytes []int64
	workers    []*workerState

	fpStarts []float64 // worker 0
	finish   float64
	started  bool
}

// New builds an engine over the given simulator.
func New(se *sim.Engine, cfg Config, hook CommHook) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if hook == nil {
		return nil, fmt.Errorf("engine: nil communication hook")
	}
	e := &Engine{
		sim:        se,
		hook:       hook,
		rng:        stats.NewRNG(cfg.Seed),
		layerBytes: make([]int64, cfg.Model.NumLayers()),
	}
	for w := 0; w < cfg.Workers; w++ {
		ws := &workerState{id: w, gpu: sim.NewServer(se, fmt.Sprintf("w%02d/gpu", w))}
		ws.ops = newOps(e, ws, len(e.layerBytes))
		e.workers = append(e.workers, ws)
	}
	return e, e.Reset(cfg)
}

// Reset returns the engine to the state New leaves it in, under cfg, which
// must keep the worker and layer counts: not started, every gate shut, the
// jitter generator reseeded and the GPUs idle. Gate slabs keep their
// capacity. The simulator must have been reset too.
func (e *Engine) Reset(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	n := cfg.Model.NumLayers()
	if cfg.Workers != len(e.workers) || n != len(e.layerBytes) {
		return fmt.Errorf("engine: reset to %d workers and %d layers, built for %d and %d", cfg.Workers, n, len(e.workers), len(e.layerBytes))
	}
	e.cfg = cfg
	e.rng.Seed(cfg.Seed)
	e.fp, e.bp = cfg.Model.FPTimes(), cfg.Model.BPTimes()
	for i, l := range cfg.Model.Layers {
		e.layerBytes[i] = l.Bytes()
	}
	e.fpStarts = resized(e.fpStarts, cfg.Iterations)
	e.finish, e.started = 0, false
	for _, ws := range e.workers {
		ws.gpu.Reset()
		ws.commGates = resized(ws.commGates, cfg.Iterations*n)
		ws.barrier = resized(ws.barrier, cfg.Iterations)
		ws.barrierRemaining = resized(ws.barrierRemaining, cfg.Iterations)
		for t := range ws.barrierRemaining {
			ws.barrierRemaining[t] = n
		}
	}
	return nil
}

// resized returns s at length n, zeroed, reusing its backing array when it
// is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Start schedules the run; the caller then drives the shared simulator.
func (e *Engine) Start() {
	if e.started {
		panic("engine: Start called twice")
	}
	e.started = true
	for _, ws := range e.workers {
		e.forward(ws, 0, 0)
	}
}

// Result returns the run summary; valid once the simulator has drained.
func (e *Engine) Result() Result {
	return Result{
		FPStarts:   append([]float64(nil), e.fpStarts...),
		Finish:     e.finish,
		Iterations: e.cfg.Iterations,
	}
}

// OutstandingGates returns the number of communication gates that never
// opened — a leak detector: after a drained run it must be zero, or some
// layer's communication was lost.
func (e *Engine) OutstandingGates() int {
	leaked := 0
	for _, ws := range e.workers {
		for i := range ws.commGates {
			if !ws.commGates[i].open {
				leaked++
			}
		}
	}
	return leaked
}

// GPUUtilization returns the fraction of elapsed time worker w's GPU spent
// computing — the complement is communication stall, the quantity
// scheduling exists to shrink. Valid once the simulator has drained.
func (e *Engine) GPUUtilization(w int) float64 {
	if e.finish <= 0 {
		return 0
	}
	return e.workers[w].gpu.BusyTime() / e.finish
}

// jittered returns the op duration with worker-specific jitter applied.
func (e *Engine) jittered(dur float64) float64 {
	if e.cfg.Jitter <= 0 {
		return dur
	}
	return dur * e.rng.Jitter(e.cfg.Jitter)
}

func (e *Engine) simNow() float64 { return e.sim.Now() }

// gradientProduced handles the end of backward op o: after the local
// aggregation latency, the plugin hook is told the gradient is ready
// (o.Fire); its done callback opens the layer's communication gate.
func (e *Engine) gradientProduced(o *op) {
	delay := e.cfg.LocalAggSecPerByte * float64(e.layerBytes[o.layer])
	if delay <= 0 {
		o.Fire(0)
		return
	}
	e.sim.After(delay, o, 0)
}

// commDone opens gates when a layer's communication completes.
func (e *Engine) commDone(ws *workerState, layer, iter int) {
	ws.commGate(iter, layer, len(e.fp)).fire()
	ws.barrierRemaining[iter]--
	if ws.barrierRemaining[iter] < 0 {
		panic("engine: duplicate communication completion")
	}
	if ws.barrierRemaining[iter] == 0 {
		ws.barrier[iter].fire()
	}
}

// fpGate returns the gate the forward op of (iter, layer) must wait on, or
// nil when it may run immediately.
func (e *Engine) fpGate(ws *workerState, layer, iter int) *gate {
	if iter == 0 {
		return nil
	}
	switch e.cfg.Dependency {
	case GlobalBarrier:
		if layer == 0 {
			return &ws.barrier[iter-1]
		}
		return nil
	default:
		return ws.commGate(iter-1, layer, len(e.fp))
	}
}

// recordFPStart notes worker 0's forward start for iteration t.
func (e *Engine) recordFPStart(ws *workerState, iter int) {
	if ws.id == 0 {
		e.fpStarts[iter] = e.simNow()
		if e.cfg.OnIteration != nil {
			e.cfg.OnIteration(iter, e.simNow())
		}
	}
}

// workerFinished notes a worker completing its final backward op.
func (e *Engine) workerFinished() {
	if now := e.simNow(); now > e.finish {
		e.finish = now
	}
}
