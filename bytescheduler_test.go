package bytescheduler_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	bs "bytescheduler"
)

func vggExperiment(policy bs.Policy) bs.Experiment {
	return bs.Experiment{
		Model:         "VGG16",
		Framework:     bs.MXNet,
		Arch:          bs.PS,
		Transport:     bs.RDMA,
		BandwidthGbps: 100,
		GPUs:          16,
		Policy:        policy,
	}
}

func TestRunBaselineAndScheduled(t *testing.T) {
	base, err := bs.Run(vggExperiment(bs.Vanilla()))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := bs.Run(vggExperiment(bs.WithPartitionCredit(2<<20, 8<<20)))
	if err != nil {
		t.Fatal(err)
	}
	if sp := bs.Speedup(base, sched); sp < 50 {
		t.Fatalf("speedup = %.1f%%, want large for VGG16 PS RDMA", sp)
	}
	if base.SampleUnit != "images" {
		t.Fatalf("SampleUnit = %q", base.SampleUnit)
	}
	linear, err := bs.Linear(vggExperiment(bs.Vanilla()))
	if err != nil {
		t.Fatal(err)
	}
	if sched.SamplesPerSec > linear*1.02 {
		t.Fatalf("scheduled %.0f exceeds linear %.0f", sched.SamplesPerSec, linear)
	}
}

func TestRunUnknownModel(t *testing.T) {
	e := vggExperiment(bs.Vanilla())
	e.Model = "LeNet-Mystery"
	if _, err := bs.Run(e); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := bs.Linear(e); err == nil {
		t.Fatal("Linear accepted unknown model")
	}
	if _, err := bs.Tune(e, 3, 1); err == nil {
		t.Fatal("Tune accepted unknown model")
	}
}

func TestPolicies(t *testing.T) {
	if bs.Vanilla().Name() != "fifo" ||
		bs.P3().Name() != "p3" ||
		bs.TicTac().Name() != "tictac" ||
		bs.WithPartitionCredit(1, 1).Name() != "bytescheduler" {
		t.Fatal("policy names wrong")
	}
}

func TestEnumStrings(t *testing.T) {
	if bs.TCP.String() != "TCP" || bs.RDMA.String() != "RDMA" {
		t.Fatal("transport strings")
	}
	if bs.PS.String() != "PS" || bs.AllReduce.String() != "NCCL" {
		t.Fatal("arch strings")
	}
	if bs.MXNet.String() != "MXNet" || bs.TensorFlow.String() != "TensorFlow" || bs.PyTorch.String() != "PyTorch" {
		t.Fatal("framework strings")
	}
}

func TestModelsAndInfo(t *testing.T) {
	names := bs.Models()
	if len(names) < 5 {
		t.Fatalf("Models() = %v", names)
	}
	info, err := bs.Info("VGG16")
	if err != nil {
		t.Fatal(err)
	}
	if info.Layers != 16 || info.Params < 100e6 || info.SampleUnit != "images" {
		t.Fatalf("Info = %+v", info)
	}
	if _, err := bs.Info("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestTuneSmall(t *testing.T) {
	e := vggExperiment(bs.Vanilla())
	e.GPUs = 8
	res, err := bs.Tune(e, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 6 || res.Partition <= 0 || res.Credit <= 0 || res.SamplesPerSec <= 0 {
		t.Fatalf("Tune = %+v", res)
	}
	// The tuned result must beat the untuned baseline.
	base, err := bs.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesPerSec <= base.SamplesPerSec {
		t.Fatalf("tuned %.0f not faster than baseline %.0f", res.SamplesPerSec, base.SamplesPerSec)
	}
}

func TestCollectiveAndCompressionOptions(t *testing.T) {
	e := bs.Experiment{
		Model:         "VGG16",
		Framework:     bs.MXNet,
		Arch:          bs.AllReduce,
		Transport:     bs.RDMA,
		BandwidthGbps: 100,
		GPUs:          16,
		Policy:        bs.WithPartitionCredit(64<<20, 160<<20),
	}
	for _, algo := range []string{"", "ring", "hd", "tree"} {
		e.Collective = algo
		if _, err := bs.Run(e); err != nil {
			t.Errorf("collective %q: %v", algo, err)
		}
	}
	e.Collective = "butterfly"
	if _, err := bs.Run(e); err == nil {
		t.Error("unknown collective accepted")
	}
	e.Collective = ""

	plain, err := bs.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []string{"fp16", "int8", "topk:0.01"} {
		e.Compression = comp
		res, err := bs.Run(e)
		if err != nil {
			t.Fatalf("compression %q: %v", comp, err)
		}
		if res.SamplesPerSec < plain.SamplesPerSec {
			t.Errorf("compression %q slowed training: %.0f < %.0f", comp, res.SamplesPerSec, plain.SamplesPerSec)
		}
	}
	for _, bad := range []string{"zip", "topk:", "topk:2.5"} {
		e.Compression = bad
		if _, err := bs.Run(e); err == nil {
			t.Errorf("bad compression %q accepted", bad)
		}
	}
}

// Experiment.Compression takes exactly the live -codec vocabulary: every
// spelling compress.ParseCodec accepts, and nothing with trailing garbage or
// a keep ratio that would inflate traffic.
func TestCompressionSpec(t *testing.T) {
	e := vggExperiment(bs.Vanilla())
	for _, spec := range []string{"", "none", "fp16", "FP16", "int8", "topk:0.01"} {
		e.Compression = spec
		if _, err := bs.Linear(e); err != nil {
			t.Errorf("compression %q rejected: %v", spec, err)
		}
	}
	for _, spec := range []string{"topk:0.01abc", "topk:0.6", "gzip"} {
		e.Compression = spec
		if _, err := bs.Linear(e); err == nil {
			t.Errorf("compression %q accepted", spec)
		}
	}
}

func TestTuneOnline(t *testing.T) {
	e := vggExperiment(bs.WithPartitionCredit(64<<20, 64<<20)) // poor start
	e.GPUs = 8
	res, err := bs.TuneOnline(e, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSpeed <= res.FirstSpeed {
		t.Fatalf("online tuning did not improve: %.0f -> %.0f", res.FirstSpeed, res.FinalSpeed)
	}
	if res.Partition >= 64<<20 || res.Credit <= 0 {
		t.Fatalf("tuner stuck at the bad start: %+v", res)
	}
	if res.Restarts == 0 || res.OverheadSec != float64(res.Restarts)*5 {
		t.Fatalf("restart overhead not accounted: %d restarts, %.0fs", res.Restarts, res.OverheadSec)
	}
	bad := vggExperiment(bs.Vanilla())
	if _, err := bs.TuneOnline(bad, 6, 2); err == nil {
		t.Fatal("TuneOnline accepted an unscheduled policy")
	}
}

func TestLiveScheduler(t *testing.T) {
	s := bs.NewScheduler(bs.WithPartitionCredit(1<<20, 4<<20))
	var started atomic.Int64
	var wg sync.WaitGroup
	const parts = 8
	wg.Add(1)
	task := &bs.CommTask{
		Layer: 0,
		Name:  "weight",
		Bytes: parts << 20,
		Start: func(sub bs.SubTask, done func()) {
			if sub.Count != parts || sub.Bytes != 1<<20 {
				t.Errorf("unexpected sub %+v", sub)
			}
			started.Add(1)
			done()
		},
		OnFinished: func() { wg.Done() },
	}
	if err := s.Enqueue(task); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(task); err == nil {
		t.Fatal("double enqueue accepted")
	}
	if err := s.NotifyReady(task); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	s.Shutdown()
	if got := started.Load(); got != parts {
		t.Fatalf("started %d partitions, want %d", got, parts)
	}
	st := s.Stats()
	if st.SubsStarted != parts || st.SubsFinished != parts || st.TasksEnqueued != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !s.Drained() {
		t.Fatal("not drained")
	}
}

func TestLiveSchedulerRetries(t *testing.T) {
	s := bs.NewScheduler(bs.WithPartitionCredit(1<<20, 4<<20).WithMaxRetries(3))
	var wg sync.WaitGroup
	wg.Add(1)
	var failed atomic.Int64
	task := &bs.CommTask{
		Layer: 0,
		Name:  "weight",
		Bytes: 4 << 20,
		StartErr: func(sub bs.SubTask, done func(error)) {
			// Each partition fails once, then succeeds on retry.
			if sub.Index == int(failed.Load()) && failed.Add(1) > 0 {
				done(errFlaky)
				return
			}
			done(nil)
		},
		OnFinished: func() { wg.Done() },
	}
	if err := s.Enqueue(task); err != nil {
		t.Fatal(err)
	}
	if err := s.NotifyReady(task); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	s.Shutdown()
	if err := task.Err(); err != nil {
		t.Fatalf("task failed despite retry budget: %v", err)
	}
	st := s.Stats()
	if st.Retries == 0 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want retries > 0 and no failures", st)
	}
	if st.SubsStarted != st.SubsFinished+st.Retries {
		t.Fatalf("counter invariant violated: %+v", st)
	}
}

var errFlaky = errors.New("transient fault")

func TestLiveSchedulerBothStartsRejected(t *testing.T) {
	s := bs.NewScheduler(bs.Vanilla())
	defer s.Shutdown()
	err := s.Enqueue(&bs.CommTask{
		Name:     "x",
		Bytes:    1,
		Start:    func(bs.SubTask, func()) {},
		StartErr: func(bs.SubTask, func(error)) {},
	})
	if err == nil {
		t.Fatal("task with both Start and StartErr accepted")
	}
}

func TestRunWithFaults(t *testing.T) {
	e := vggExperiment(bs.Vanilla())
	e.Transport = bs.TCP
	e.BandwidthGbps = 25
	e.Iterations = 6
	clean, err := bs.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	e.Faults = &bs.FaultInjection{Seed: 5, DropProb: 0.02, RetransmitDelay: 2e-3}
	faulty, err := bs.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Retransmits == 0 {
		t.Fatal("no retransmits recorded")
	}
	if faulty.SamplesPerSec >= clean.SamplesPerSec {
		t.Fatalf("faults did not slow the run: %.0f >= %.0f",
			faulty.SamplesPerSec, clean.SamplesPerSec)
	}
	// Faults are PS-only.
	e.Arch = bs.AllReduce
	if _, err := bs.Run(e); err == nil {
		t.Fatal("fault injection on all-reduce accepted")
	}
}

func TestLiveSchedulerNotEnqueued(t *testing.T) {
	s := bs.NewScheduler(bs.Vanilla())
	defer s.Shutdown()
	err := s.NotifyReady(&bs.CommTask{Name: "x", Bytes: 1, Start: func(bs.SubTask, func()) {}})
	if err == nil {
		t.Fatal("NotifyReady before Enqueue accepted")
	}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
}
