package runner

import (
	"reflect"
	"testing"

	"bytescheduler/internal/autotune"
	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
	"bytescheduler/internal/network"
	"bytescheduler/internal/plugin"
	"bytescheduler/internal/ps"
)

func onlineBase(t *testing.T) OnlineConfig {
	t.Helper()
	return OnlineConfig{
		Config: Config{
			Model:         model.VGG16(),
			Framework:     plugin.MXNet,
			Arch:          PS,
			Transport:     network.RDMA(),
			BandwidthGbps: 100,
			GPUs:          16,
			// Deliberately poor starting parameters: huge partitions.
			Policy:    core.ByteScheduler(64<<20, 64<<20),
			Scheduled: true,
		},
		AutoTune:       autotune.Config{Trials: 8, Seed: 5},
		RestartPenalty: 5,
	}
}

func TestOnlineTuningImproves(t *testing.T) {
	res, err := RunOnlineTuned(onlineBase(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if len(rep.Decisions) == 0 || res.FirstSpeed <= 0 {
		t.Fatalf("no windows judged: %+v", res)
	}
	if res.FinalSpeed <= res.FirstSpeed {
		t.Fatalf("online tuning did not improve: first %.0f final %.0f", res.FirstSpeed, res.FinalSpeed)
	}
	// The controller's whole state machine runs on virtual time: from the
	// terrible 64MB start some probe regresses past the rollback bar, the
	// incumbent is re-validated, and the episode settles far below 32MB.
	rolled := false
	for i, d := range rep.Decisions[:len(rep.Decisions)-1] {
		if d.Action == "rollback" {
			rolled = true
			if next := rep.Decisions[i+1]; next.Action != "revalidate" || next.State != autotune.StateRecovering {
				t.Fatalf("rollback at iter %d followed by %+v, want revalidate", d.Iter, next)
			}
		}
	}
	if !rolled || rep.Rollbacks != 1 {
		t.Fatalf("no guarded rollback in %+v", rep.Decisions)
	}
	if !rep.Settled || rep.Final != rep.Best || rep.Final.Partition >= 32<<20 || rep.Final.Credit <= 0 {
		t.Fatalf("did not settle away from the bad start: settled=%v final=%v best=%v", rep.Settled, rep.Final, rep.Best)
	}
}

// Virtual time makes the tuner a pure function of its seeds: two runs must
// agree on every field of every decision.
func TestOnlineTuningDeterministic(t *testing.T) {
	oc := onlineBase(t)
	oc.Jitter, oc.Seed = 0.05, 3
	a, err := RunOnlineTuned(oc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnlineTuned(oc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seeds, different runs:\n%+v\n%+v", a, b)
	}
}

func TestOnlineTuningRestartAccounting(t *testing.T) {
	oc := onlineBase(t)
	for _, arch := range []Arch{PS, AllReduce} {
		oc.Arch = arch
		res, err := RunOnlineTuned(oc)
		if err != nil {
			t.Fatal(err)
		}
		changes, part := 0, oc.Policy.PartitionUnit
		for _, d := range res.Report.Decisions {
			if d.Setting.Partition != part {
				changes++
				part = d.Setting.Partition
			}
		}
		if changes == 0 || res.Restarts != changes {
			t.Fatalf("%v: restarts %d, partition changes %d", arch, res.Restarts, changes)
		}
		// All-reduce adjusts live: no overhead.
		want := float64(changes) * oc.RestartPenalty
		if arch == AllReduce {
			want = 0
		}
		if res.TuningOverhead != want {
			t.Fatalf("%v: overhead %.1f, want %.1f (%d changes)", arch, res.TuningOverhead, want, changes)
		}
	}
}

func TestOnlineTuningUnderJitter(t *testing.T) {
	oc := onlineBase(t)
	oc.Jitter = 0.05
	oc.Seed = 3
	res, err := RunOnlineTuned(oc)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSpeed <= res.FirstSpeed {
		t.Fatalf("noisy online tuning did not improve: first %.0f final %.0f", res.FirstSpeed, res.FinalSpeed)
	}
}

func TestOnlineTuningValidation(t *testing.T) {
	unscheduled := onlineBase(t)
	unscheduled.Policy = core.FIFO()
	unscheduled.Scheduled = false
	noCredit := onlineBase(t)
	noCredit.Policy.CreditBytes = 0
	badTuner := onlineBase(t)
	badTuner.AutoTune.Suggester = "simplex"
	for name, oc := range map[string]OnlineConfig{
		"unscheduled starting policy": unscheduled,
		"zero starting credit":        noCredit,
		"unknown suggester":           badTuner,
	} {
		if _, err := RunOnlineTuned(oc); err == nil {
			t.Errorf("accepted %s", name)
		}
	}
}

func TestCoScheduledContention(t *testing.T) {
	mk := func(policy core.Policy, scheduled bool) Config {
		return Config{
			Model:         model.VGG16(),
			Framework:     plugin.MXNet,
			Arch:          PS,
			Transport:     network.RDMA(),
			BandwidthGbps: 100,
			GPUs:          16,
			Policy:        policy,
			Scheduled:     scheduled,
			Iterations:    10,
			Warmup:        2,
		}
	}
	solo, err := Run(mk(core.ByteScheduler(2<<20, 16<<20), true))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := RunCoScheduled([]Config{
		mk(core.ByteScheduler(2<<20, 16<<20), true),
		mk(core.ByteScheduler(2<<20, 16<<20), true),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) != 2 {
		t.Fatalf("results = %d", len(shared))
	}
	for i, r := range shared {
		if r.SamplesPerSec <= 0 {
			t.Fatalf("job %d degenerate", i)
		}
		// Sharing the fabric must cost something but not everything.
		if r.SamplesPerSec >= solo.SamplesPerSec {
			t.Fatalf("job %d unaffected by contention: %.0f vs solo %.0f", i, r.SamplesPerSec, solo.SamplesPerSec)
		}
		if r.SamplesPerSec < solo.SamplesPerSec*0.3 {
			t.Fatalf("job %d starved: %.0f vs solo %.0f", i, r.SamplesPerSec, solo.SamplesPerSec)
		}
	}
	// Symmetric jobs should see similar speeds.
	ratio := shared[0].SamplesPerSec / shared[1].SamplesPerSec
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("asymmetric outcomes for symmetric jobs: %.0f vs %.0f",
			shared[0].SamplesPerSec, shared[1].SamplesPerSec)
	}
}

func TestCoScheduledSchedulingStillHelps(t *testing.T) {
	mk := func(policy core.Policy, scheduled bool) Config {
		return Config{
			Model:         model.VGG16(),
			Framework:     plugin.MXNet,
			Arch:          PS,
			Transport:     network.RDMA(),
			BandwidthGbps: 100,
			GPUs:          16,
			Policy:        policy,
			Scheduled:     scheduled,
			Iterations:    10,
			Warmup:        2,
		}
	}
	fifoJobs, err := RunCoScheduled([]Config{mk(core.FIFO(), false), mk(core.FIFO(), false)})
	if err != nil {
		t.Fatal(err)
	}
	bsJobs, err := RunCoScheduled([]Config{
		mk(core.ByteScheduler(2<<20, 16<<20), true),
		mk(core.ByteScheduler(2<<20, 16<<20), true),
	})
	if err != nil {
		t.Fatal(err)
	}
	fifoTotal := fifoJobs[0].SamplesPerSec + fifoJobs[1].SamplesPerSec
	bsTotal := bsJobs[0].SamplesPerSec + bsJobs[1].SamplesPerSec
	if bsTotal <= fifoTotal {
		t.Fatalf("scheduling stopped helping under contention: %.0f vs %.0f", bsTotal, fifoTotal)
	}
}

// A co-scheduled job is wired by the same build as a solo job, so its
// placement strategy reaches the PS assigner. The policy does not partition,
// so the assigner places whole tensors.
func TestCoScheduledHonoursPlacement(t *testing.T) {
	mk := func(placement ps.Strategy) Config {
		return Config{
			Model:         model.VGG16(),
			Framework:     plugin.MXNet,
			Arch:          PS,
			Transport:     network.RDMA(),
			BandwidthGbps: 100,
			GPUs:          32,
			Policy:        core.ByteScheduler(0, 16<<20),
			Scheduled:     true,
			Placement:     placement,
			Iterations:    4,
			Warmup:        1,
		}
	}
	res, err := RunCoScheduled([]Config{mk(ps.StrategyRoundRobin), mk(ps.StrategySizeBalanced)})
	if err != nil {
		t.Fatal(err)
	}
	rr, lpt := res[0].PlannedImbalance, res[1].PlannedImbalance
	if rr <= 0 || lpt <= 0 || lpt >= rr {
		t.Fatalf("planned imbalance round-robin %.3f, size-balanced %.3f: placement ignored", rr, lpt)
	}
}

func TestCoScheduledValidation(t *testing.T) {
	good := Config{
		Model:         model.VGG16(),
		Framework:     plugin.MXNet,
		Arch:          PS,
		Transport:     network.RDMA(),
		BandwidthGbps: 100,
		GPUs:          16,
		Policy:        core.FIFO(),
	}
	if _, err := RunCoScheduled(nil); err == nil {
		t.Error("accepted zero jobs")
	}
	ar := good
	ar.Arch = AllReduce
	if _, err := RunCoScheduled([]Config{good, ar}); err == nil {
		t.Error("accepted all-reduce job")
	}
	big := good
	big.GPUs = 32
	if _, err := RunCoScheduled([]Config{good, big}); err == nil {
		t.Error("accepted mismatched cluster shapes")
	}
	faulty := good
	faulty.Faults = &network.FaultConfig{DropProb: 0.1, RetransmitDelay: 1e-3}
	if _, err := RunCoScheduled([]Config{good, faulty}); err == nil {
		t.Error("accepted a per-job fault config on the shared fabric")
	}
}
