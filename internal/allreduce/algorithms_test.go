package allreduce

import (
	"testing"

	"bytescheduler/internal/network"
	"bytescheduler/internal/sim"
)

func TestAlgorithmNames(t *testing.T) {
	for a, want := range map[Algorithm]string{
		RingAlgo: "ring", HalvingDoubling: "halving-doubling", DoubleTree: "double-tree",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
		got, err := AlgorithmByName(want)
		if err != nil || got != a {
			t.Errorf("AlgorithmByName(%q) = %v, %v", want, got, err)
		}
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm must format")
	}
	if _, err := AlgorithmByName("butterfly"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if got, err := AlgorithmByName("hd"); err != nil || got != HalvingDoubling {
		t.Error("alias hd not accepted")
	}
}

func TestSetAlgorithmValidation(t *testing.T) {
	r := newRing(t, sim.New(), 4)
	r.SetAlgorithm(HalvingDoubling)
	if r.algo != HalvingDoubling {
		t.Fatal("SetAlgorithm did not stick")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid algorithm accepted")
		}
	}()
	r.SetAlgorithm(Algorithm(9))
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestHalvingDoublingLatencyAdvantage(t *testing.T) {
	// For a tiny payload on a big ring, halving-doubling's log-depth
	// rounds beat the ring's linear hop chain.
	eng := sim.New()
	ring := newRing(t, eng, 16)
	hd := newRing(t, eng, 16)
	hd.SetAlgorithm(HalvingDoubling)
	if hd.opTime(64, false) >= ring.opTime(64, false) {
		t.Fatalf("HD small-payload %v not faster than ring %v",
			hd.opTime(64, false), ring.opTime(64, false))
	}
	// For a huge payload both are bandwidth-optimal: equal transfer term,
	// HD still wins slightly via latency, so it must not be slower.
	if hd.opTime(1<<30, false) > ring.opTime(1<<30, false) {
		t.Fatal("HD must not lose on bandwidth")
	}
}

func TestDoubleTreeBandwidthPenalty(t *testing.T) {
	// The tree moves 2x the bytes regardless of M; on a big ring with a
	// large payload it must be slower than the ring, but for tiny
	// payloads its log-depth wins.
	eng := sim.New()
	ring := newRing(t, eng, 16)
	tree := newRing(t, eng, 16)
	tree.SetAlgorithm(DoubleTree)
	if tree.opTime(256<<20, false) <= ring.opTime(256<<20, false) {
		t.Fatal("tree must pay a bandwidth penalty on large payloads")
	}
	if tree.opTime(64, false) >= ring.opTime(64, false) {
		t.Fatal("tree must win on latency for small payloads")
	}
}

func TestAlgorithmCrossover(t *testing.T) {
	// Somewhere between tiny and huge payloads, ring overtakes tree: a
	// crossover must exist (monotone difference).
	eng := sim.New()
	ring := newRing(t, eng, 8)
	tree := newRing(t, eng, 8)
	tree.SetAlgorithm(DoubleTree)
	small := tree.opTime(1<<10, false) < ring.opTime(1<<10, false)
	large := tree.opTime(1<<28, false) > ring.opTime(1<<28, false)
	if !small || !large {
		t.Fatalf("no crossover: small tree-wins=%v large ring-wins=%v", small, large)
	}
}

func TestAlgorithmsExecute(t *testing.T) {
	for _, algo := range []Algorithm{RingAlgo, HalvingDoubling, DoubleTree} {
		eng := sim.New()
		r, err := New(eng, 4, 100, network.RDMA())
		if err != nil {
			t.Fatal(err)
		}
		r.SetAlgorithm(algo)
		done := 0
		for i := 0; i < 3; i++ {
			r.Submit(&Op{Bytes: 1 << 20, OnDone: func() { done++ }})
		}
		eng.Run()
		if done != 3 {
			t.Fatalf("%v: completed %d ops, want 3", algo, done)
		}
	}
}

func TestSingleMachineAlgorithmsEquivalent(t *testing.T) {
	// With one machine there is no inter-machine stage; all algorithms
	// cost the same.
	eng := sim.New()
	var times []float64
	for _, algo := range []Algorithm{RingAlgo, HalvingDoubling, DoubleTree} {
		r := newRing(t, eng, 1)
		r.SetIntraNode(8, 10e9)
		r.SetAlgorithm(algo)
		times = append(times, r.opTime(1<<20, false))
	}
	if times[0] != times[1] || times[1] != times[2] {
		t.Fatalf("single-machine times differ: %v", times)
	}
}
