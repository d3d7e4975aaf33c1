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
	if got := r.OpTime(64<<20, false); !almost(got, want) {
		t.Fatalf("OpTime = %v, want %v", got, want)
	}
}

func TestIntraNodeStage(t *testing.T) {
	eng := sim.New()
	r := newRing(t, eng, 4)
	base := r.OpTime(64<<20, false)
	r.SetIntraNode(8, 10e9)
	withIntra := r.OpTime(64<<20, false)
	wantExtra := 2.0 * 7 / 8 * float64(64<<20) / 10e9
	if !almost(withIntra-base, wantExtra) {
		t.Fatalf("intra stage added %v, want %v", withIntra-base, wantExtra)
	}
	// Single machine: only the intra stage and sync remain.
	solo := newRing(t, eng, 1)
	solo.SetIntraNode(8, 10e9)
	if got := solo.OpTime(64<<20, false); got < wantExtra {
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
	full := r.OpTime(1<<20, false)
	pip := r.OpTime(1<<20, true)
	if pip >= full {
		t.Fatalf("pipelined %v not cheaper than full %v", pip, full)
	}
}

func TestSingleMachineIsLocal(t *testing.T) {
	eng := sim.New()
	r := newRing(t, eng, 1)
	// No network term for a single machine.
	if got := r.OpTime(1<<30, false); got > 1e-3 {
		t.Fatalf("single machine OpTime = %v, want sync-only", got)
	}
}

func TestSyncCostGrowsWithMachines(t *testing.T) {
	eng := sim.New()
	small := newRing(t, eng, 2)
	big := newRing(t, eng, 16)
	// For a tiny payload, sync dominates; more machines, more hops.
	if big.OpTime(1, false) <= small.OpTime(1, false) {
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
	if r.Served() != 5 {
		t.Fatalf("Served = %d", r.Served())
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
	want := r.OpTime(1<<20, false) + r.OpTime(1<<20, true)
	if !almost(last, want) {
		t.Fatalf("back-to-back pair took %v, want %v", last, want)
	}
	if want >= 2*r.OpTime(1<<20, false) {
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
	if !r.Busy() || r.QueueLen() != 0 {
		t.Fatalf("idle ring left the op queued: busy=%v queued=%d", r.Busy(), r.QueueLen())
	}
	eng.Run()
	if r.Busy() || r.Served() != 1 {
		t.Fatalf("after the run: busy=%v served=%d", r.Busy(), r.Served())
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
	if !almost(r.Utilization(), 1) {
		t.Fatalf("back-to-back ops should keep ring 100%% busy, got %v", r.Utilization())
	}
	if r.ReducedBytes() != 20<<20 {
		t.Fatalf("ReducedBytes = %d", r.ReducedBytes())
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
		done := 0
		for _, b := range raw {
			r.Submit(&Op{Bytes: int64(b), OnDone: func() { done++ }})
		}
		eng.Run()
		if done != len(raw) {
			return false
		}
		return math.Abs(eng.Now()-r.busyTime) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
