package allreduce

import (
	"math"
	"testing"
	"testing/quick"

	"bytescheduler/internal/network"
	"bytescheduler/internal/sim"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func newRing(t *testing.T, eng *sim.Engine, machines int) *Ring {
	t.Helper()
	r, err := New(eng, machines, 100, network.RDMA())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(sim.New(), 0, 100, network.RDMA()); err == nil {
		t.Error("accepted zero machines")
	}
	if _, err := New(sim.New(), 4, 0, network.RDMA()); err == nil {
		t.Error("accepted zero bandwidth")
	}
}

func TestOpTimeBandwidthTerm(t *testing.T) {
	eng := sim.New()
	r := newRing(t, eng, 4)
	prof := network.RDMA()
	bw := network.GbpsToBytes(100) * prof.Efficiency
	if cap := network.GbpsToBytes(prof.CollectiveMaxGbps); bw > cap {
		bw = cap // collective stacks bottleneck below a 100 Gbps NIC
	}
	want := 2.0 * 3 / 4 * float64(64<<20) / bw
	want += prof.CollectiveLaunch + 2*3*prof.HopLatency
	if got := r.opTime(64<<20, false); !almost(got, want) {
		t.Fatalf("OpTime = %v, want %v", got, want)
	}
}

func TestIntraNodeStage(t *testing.T) {
	eng := sim.New()
	r := newRing(t, eng, 4)
	base := r.opTime(64<<20, false)
	r.SetIntraNode(8, 10e9)
	withIntra := r.opTime(64<<20, false)
	wantExtra := 2.0 * 7 / 8 * float64(64<<20) / 10e9
	if !almost(withIntra-base, wantExtra) {
		t.Fatalf("intra stage added %v, want %v", withIntra-base, wantExtra)
	}
	// Single machine: only the intra stage and sync remain.
	solo := newRing(t, eng, 1)
	solo.SetIntraNode(8, 10e9)
	if got := solo.opTime(64<<20, false); got < wantExtra {
		t.Fatalf("single-machine OpTime %v must include the intra stage %v", got, wantExtra)
	}
	// Disabling needs gpus<2; invalid bandwidth panics.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero intra bandwidth")
		}
	}()
	solo.SetIntraNode(8, 0)
}

func TestOpTimePipelinedDiscount(t *testing.T) {
	eng := sim.New()
	r := newRing(t, eng, 8)
	full := r.opTime(1<<20, false)
	pip := r.opTime(1<<20, true)
	if pip >= full {
		t.Fatalf("pipelined %v not cheaper than full %v", pip, full)
	}
}

func TestSingleMachineIsLocal(t *testing.T) {
	eng := sim.New()
	r := newRing(t, eng, 1)
	// No network term for a single machine.
	if got := r.opTime(1<<30, false); got > 1e-3 {
		t.Fatalf("single machine OpTime = %v, want sync-only", got)
	}
}

func TestSyncCostGrowsWithMachines(t *testing.T) {
	eng := sim.New()
	small := newRing(t, eng, 2)
	big := newRing(t, eng, 16)
	// For a tiny payload, sync dominates; more machines, more hops.
	if big.opTime(1, false) <= small.opTime(1, false) {
		t.Fatal("sync cost must grow with ring size")
	}
}

func TestFIFOExecution(t *testing.T) {
	eng := sim.New()
	r := newRing(t, eng, 4)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Submit(&Op{Bytes: 1 << 20, OnDone: func() { order = append(order, i) }})
	}
	eng.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v", order)
		}
	}
	if r.served != 5 {
		t.Fatalf("served = %d", r.served)
	}
}

func TestBackToBackAmortizesSync(t *testing.T) {
	// Two ops submitted together finish faster than two ops with an idle
	// gap between them would.
	eng := sim.New()
	r := newRing(t, eng, 8)
	var last float64
	r.Submit(&Op{Bytes: 1 << 20})
	r.Submit(&Op{Bytes: 1 << 20, OnDone: func() { last = eng.Now() }})
	eng.Run()
	want := r.opTime(1<<20, false) + r.opTime(1<<20, true)
	if !almost(last, want) {
		t.Fatalf("back-to-back pair took %v, want %v", last, want)
	}
	if want >= 2*r.opTime(1<<20, false) {
		t.Fatal("pipelining saved nothing")
	}
}

func TestAckDelay(t *testing.T) {
	eng := sim.New()
	prof := network.TCP()
	r, err := New(eng, 4, 100, prof)
	if err != nil {
		t.Fatal(err)
	}
	var done, acked float64
	r.Submit(&Op{Bytes: 1 << 20, OnDone: func() { done = eng.Now() }, OnAcked: func() { acked = eng.Now() }})
	eng.Run()
	if !almost(acked-done, prof.AckDelay) {
		t.Fatalf("ack delay = %v, want %v", acked-done, prof.AckDelay)
	}
}

// An op submitted to an idle ring starts at once, not on a later event.
func TestOnStartFires(t *testing.T) {
	eng := sim.New()
	r := newRing(t, eng, 2)
	r.Submit(&Op{Bytes: 1})
	if !r.busy || len(r.queue) != 0 {
		t.Fatalf("idle ring left the op queued: busy=%v queued=%d", r.busy, len(r.queue))
	}
	eng.Run()
	if r.busy || r.served != 1 {
		t.Fatalf("after the run: busy=%v served=%d", r.busy, r.served)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	eng := sim.New()
	r := newRing(t, eng, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("accepted negative size")
		}
	}()
	r.Submit(&Op{Bytes: -1})
}

func TestUtilizationAndBytes(t *testing.T) {
	eng := sim.New()
	r := newRing(t, eng, 4)
	r.Submit(&Op{Bytes: 10 << 20})
	r.Submit(&Op{Bytes: 10 << 20})
	eng.Run()
	// Back-to-back ops keep the ring busy from the first start to the last
	// end: the run lasts exactly their two service times.
	if want := r.opTime(10<<20, false) + r.opTime(10<<20, true); !almost(eng.Now(), want) {
		t.Fatalf("back-to-back ops should keep ring 100%% busy: ended at %v, want %v", eng.Now(), want)
	}
	if r.served != 2 {
		t.Fatalf("served = %d", r.served)
	}
}

// Property: every submitted op completes exactly once, in order, and the
// total time is the sum of service times (serial ring).
func TestSerialProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		eng := sim.New()
		r, err := New(eng, 4, 25, network.TCP())
		if err != nil {
			return false
		}
		done, busy := 0, 0.0
		for i, b := range raw {
			r.Submit(&Op{Bytes: int64(b), OnDone: func() { done++ }})
			busy += r.opTime(int64(b), i > 0)
		}
		eng.Run()
		if done != len(raw) {
			return false
		}
		return math.Abs(eng.Now()-busy) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
