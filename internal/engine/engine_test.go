package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"bytescheduler/internal/model"
	"bytescheduler/internal/sim"
	"bytescheduler/internal/trace"
)

// instantHook completes every communication immediately.
type instantHook struct {
	calls []string
}

func (h *instantHook) GradientReady(worker, layer, iter int, done func()) {
	h.calls = append(h.calls, fmt.Sprintf("w%d/l%d/t%d", worker, layer, iter))
	done()
}

// delayHook completes each layer's communication after a per-layer delay.
type delayHook struct {
	se     *sim.Engine
	delays []float64
}

func (h *delayHook) GradientReady(worker, layer, iter int, done func()) {
	h.se.Schedule(h.delays[layer], done)
}

func baseConfig(m *model.Model, iters int) Config {
	return Config{Model: m, Workers: 1, Iterations: iters}
}

func run(t *testing.T, se *sim.Engine, cfg Config, hook CommHook) Result {
	t.Helper()
	e, err := New(se, cfg, hook)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	se.Run()
	return e.Result()
}

func TestConfigValidate(t *testing.T) {
	m := model.Synthetic("s", 3, 1024, 0.01)
	good := baseConfig(m, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Workers: 1, Iterations: 1},
		{Model: m, Workers: 0, Iterations: 1},
		{Model: m, Workers: 1, Iterations: 0},
		{Model: m, Workers: 1, Iterations: 1, Jitter: 1.0},
		{Model: m, Workers: 1, Iterations: 1, Jitter: -0.1},
		{Model: m, Workers: 1, Iterations: 1, LocalAggSecPerByte: -1},
		{Model: m, Workers: 1, Iterations: 1, Dependency: DependencyMode(9)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(sim.New(), good, nil); err == nil {
		t.Error("nil hook accepted")
	}
}

func TestModeStrings(t *testing.T) {
	if PerLayer.String() != "per-layer" || GlobalBarrier.String() != "global-barrier" {
		t.Fatal("DependencyMode.String")
	}
	if DependencyMode(7).String() == "" {
		t.Fatal("unknown values must format")
	}
}

func TestComputeOnlyIterationTime(t *testing.T) {
	// With instant communication, iteration time equals compute time.
	m := model.Synthetic("s", 4, 1024, 0.010)
	res := run(t, sim.New(), baseConfig(m, 5), &instantHook{})
	if got := res.AvgIterTime(1); math.Abs(got-0.010) > 1e-9 {
		t.Errorf("iter time %v, want 0.010", got)
	}
	if len(res.FPStarts) != 5 {
		t.Errorf("FPStarts len %d", len(res.FPStarts))
	}
}

func TestBackwardHookOrder(t *testing.T) {
	// Gradients must arrive from the last layer to the first, per
	// iteration, matching backward propagation.
	m := model.Synthetic("s", 3, 1024, 0.01)
	h := &instantHook{}
	run(t, sim.New(), baseConfig(m, 2), h)
	want := []string{
		"w0/l2/t0", "w0/l1/t0", "w0/l0/t0",
		"w0/l2/t1", "w0/l1/t1", "w0/l0/t1",
	}
	if !slices.Equal(h.calls, want) {
		t.Fatalf("calls %v, want %v", h.calls, want)
	}
}

func TestGlobalBarrierDelaysNextIteration(t *testing.T) {
	// Layer 0 finishes its communication fast; other layers are slow.
	// Per-layer dependencies let the next forward pass start as soon as
	// layer 0 is ready; the barrier waits for everything.
	m := model.Synthetic("s", 4, 1024, 0.004)
	mkHook := func(se *sim.Engine) *delayHook {
		return &delayHook{se: se, delays: []float64{0.0001, 0.05, 0.05, 0.05}}
	}
	var starts []float64
	for _, dep := range []DependencyMode{PerLayer, GlobalBarrier} {
		se := sim.New()
		cfg := baseConfig(m, 2)
		cfg.Dependency = dep
		res := run(t, se, cfg, mkHook(se))
		starts = append(starts, res.FPStarts[1])
	}
	if starts[0] >= starts[1] {
		t.Fatalf("per-layer start %v not earlier than barrier start %v", starts[0], starts[1])
	}
}

func TestForwardNeverPrecedesGate(t *testing.T) {
	// Record when each layer's comm completes; FP of iteration t+1 must
	// not start before iteration t's layer-0 comm completion.
	m := model.Synthetic("s", 3, 1024, 0.002)
	se := sim.New()
	var layer0Done []float64
	hook := CommHookFunc(func(worker, layer, iter int, done func()) {
		se.Schedule(0.01, func() {
			if layer == 0 {
				layer0Done = append(layer0Done, se.Now())
			}
			done()
		})
	})
	res := run(t, se, baseConfig(m, 3), hook)
	for tIdx := 1; tIdx < 3; tIdx++ {
		if res.FPStarts[tIdx] < layer0Done[tIdx-1]-1e-12 {
			t.Fatalf("FP %d started at %v before gate at %v", tIdx, res.FPStarts[tIdx], layer0Done[tIdx-1])
		}
	}
}

func TestLocalAggregationDelaysGradient(t *testing.T) {
	m := model.Synthetic("s", 2, 1<<20, 0.001)
	at := func(aggPerByte float64) float64 {
		se := sim.New()
		var first float64 = -1
		hook := CommHookFunc(func(worker, layer, iter int, done func()) {
			if first < 0 {
				first = se.Now()
			}
			done()
		})
		cfg := baseConfig(m, 1)
		cfg.LocalAggSecPerByte = aggPerByte
		run(t, se, cfg, hook)
		return first
	}
	fast, slow := at(0), at(1e-8)
	wantDelta := 1e-8 * float64(m.Layers[1].Bytes())
	if slow-fast < wantDelta*0.9 {
		t.Fatalf("local aggregation not applied: fast=%v slow=%v", fast, slow)
	}
}

func TestJitterDeterminismAndEffect(t *testing.T) {
	m := model.Synthetic("s", 3, 1024, 0.01)
	runWith := func(seed int64, jitter float64) Result {
		se := sim.New()
		cfg := baseConfig(m, 4)
		cfg.Jitter = jitter
		cfg.Seed = seed
		return run(t, se, cfg, &instantHook{})
	}
	a, b := runWith(1, 0.1), runWith(1, 0.1)
	for i := range a.FPStarts {
		if a.FPStarts[i] != b.FPStarts[i] {
			t.Fatal("same seed must reproduce exactly")
		}
	}
	c := runWith(2, 0.1)
	same := true
	for i := range a.FPStarts {
		if a.FPStarts[i] != c.FPStarts[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
	clean := runWith(1, 0)
	if math.Abs(clean.AvgIterTime(0)-0.01) > 1e-9 {
		t.Fatalf("jitter-free iter time %v", clean.AvgIterTime(0))
	}
}

func TestMultiWorkerIndependentGPUs(t *testing.T) {
	// With instant comm and no jitter, all workers proceed in lockstep and
	// iteration time equals single-worker compute.
	m := model.Synthetic("s", 3, 1024, 0.01)
	se := sim.New()
	cfg := baseConfig(m, 3)
	cfg.Workers = 4
	res := run(t, se, cfg, &instantHook{})
	if got := res.AvgIterTime(0); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("multi-worker iter time %v, want 0.01", got)
	}
}

func TestTraceRecordsSpans(t *testing.T) {
	m := model.Synthetic("s", 2, 1024, 0.01)
	se := sim.New()
	rec := trace.New()
	cfg := baseConfig(m, 2)
	cfg.Trace = rec
	run(t, se, cfg, &instantHook{})
	// 2 layers x (fp+bp) x 2 iterations = 8 spans.
	if rec.Len() != 8 {
		t.Fatalf("trace spans = %d, want 8", rec.Len())
	}
}

func TestResultAvgIterTimeDegenerate(t *testing.T) {
	r := Result{FPStarts: []float64{0}, Finish: 2, Iterations: 1}
	if got := r.AvgIterTime(0); got != 2 {
		t.Fatalf("degenerate AvgIterTime = %v, want Finish/Iterations", got)
	}
	r2 := Result{FPStarts: []float64{0, 1, 2, 3}, Iterations: 4, Finish: 4}
	if got := r2.AvgIterTime(-5); got != 1 {
		t.Fatalf("negative warmup AvgIterTime = %v, want 1", got)
	}
}

func TestStartTwicePanics(t *testing.T) {
	m := model.Synthetic("s", 2, 1024, 0.01)
	se := sim.New()
	e, err := New(se, baseConfig(m, 1), &instantHook{})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start accepted")
		}
	}()
	e.Start()
}

func TestDoubleDonePanics(t *testing.T) {
	m := model.Synthetic("s", 2, 1024, 0.01)
	se := sim.New()
	var dones []func()
	hook := CommHookFunc(func(worker, layer, iter int, done func()) {
		dones = append(dones, done)
		done()
	})
	e, err := New(se, baseConfig(m, 1), hook)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	se.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("double completion accepted")
		}
	}()
	dones[0]()
}
