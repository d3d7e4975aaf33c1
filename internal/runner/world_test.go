package runner

import (
	"sync"
	"testing"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/network"
	"bytescheduler/internal/plugin"
	"bytescheduler/internal/ps"
)

// reuseTrials are configurations that share two world shapes (VGG16 on two
// PS machines, and on a two-machine ring) and differ in everything reset
// applies, plus one compressed model whose tensors make a third shape.
func reuseTrials() []struct {
	name string
	cfg  Config
} {
	async := simPSTrial(1)
	async.Async = true
	fifo := simPSTrial(1) // unpartitioned: whole tensors, the largest chunked
	fifo.Policy, fifo.Scheduled = core.FIFO(), false
	critical := simPSTrial(1)
	critical.Priority = core.PriorityCriticalPath
	random := simPSTrial(2)
	random.Priority = core.PriorityRandom
	tensorflow := fifo
	tensorflow.Framework = plugin.TensorFlow
	pytorch := fifo
	pytorch.Framework, pytorch.Seed = plugin.PyTorch, 2
	rdma := simPSTrial(2)
	rdma.Transport, rdma.BandwidthGbps = network.RDMA(), 100
	longer := simPSTrial(2)
	longer.Iterations, longer.Warmup = 4, 2
	faults := simPSTrial(1)
	faults.Faults = &network.FaultConfig{Seed: 7, DropProb: 0.01, SpikeProb: 0.01, SpikeSec: 1e-3,
		Outages: []network.Outage{{Node: 1, Start: 0.1, Duration: 0.05}}}
	hashed := simPSTrial(2)
	hashed.Placement = ps.StrategyHashRing
	fp16 := simPSTrial(1)
	codec := compress.NewFP16()
	fp16.Compression = &codec
	ring := simPSTrial(1)
	ring.Arch, ring.Transport, ring.BandwidthGbps = AllReduce, network.RDMA(), 100
	ring2 := ring
	ring2.Seed, ring2.Framework, ring2.Scheduled, ring2.Policy = 2, plugin.TensorFlow, false, core.FIFO()
	return []struct {
		name string
		cfg  Config
	}{
		{"ps/seed1", simPSTrial(1)}, {"ps/seed2", simPSTrial(2)}, {"async", async},
		{"fifo_chunked", fifo}, {"priority_critical", critical}, {"priority_random", random},
		{"tensorflow_barrier", tensorflow}, {"pytorch_barrier", pytorch}, {"rdma_100g", rdma},
		{"four_iterations", longer}, {"faults", faults}, {"hash_ring", hashed}, {"fp16", fp16},
		{"allreduce/seed1", ring}, {"allreduce/seed2_barrier", ring2},
	}
}

// TestWorldReuseMatchesFreshBuild runs every trial on a fresh world, then on
// kept ones — interleaved so each world is reset after a trial of another
// configuration, and concurrently on one list as sweep's workers do — and
// holds each reused result, scheduler counters and event count to the fresh
// build's bits.
func TestWorldReuseMatchesFreshBuild(t *testing.T) {
	trials := reuseTrials()
	want := make([]golden, len(trials))
	for i, tc := range trials {
		want[i] = observe(t, &worldList{}, tc.cfg)
	}

	var l worldList
	for round := 0; round < 2; round++ {
		for k := range trials {
			i := k
			if round == 1 {
				i = len(trials) - 1 - k
				w := l.take(trials[i].cfg)
				if w == nil {
					t.Fatalf("%s: no idle world of its shape after a round of every trial", trials[i].name)
				}
				l.put(w)
			}
			if got := observe(t, &l, trials[i].cfg); got != want[i] {
				t.Errorf("%s on a reused world (round %d):\n got %#v\nwant %#v", trials[i].name, round, got, want[i])
			}
		}
	}
	if n := len(l.idle); n != 3 {
		t.Errorf("%d idle worlds after every trial ran twice, want one per shape (3)", n)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range trials {
				i := (k + g*len(trials)/2) % len(trials)
				res, fired, err := runOn(&worlds, trials[i].cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if got := goldenOf(res, fired); got != want[i] {
					t.Errorf("%s on a concurrently shared list:\n got %#v\nwant %#v", trials[i].name, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWorldListBound holds the idle list to maxIdleWorlds, dropping the
// least recently used, and take to the shape it was asked for.
func TestWorldListBound(t *testing.T) {
	var l worldList
	kept := make([]*world, maxIdleWorlds+1)
	for i := range kept {
		kept[i] = &world{arch: PS, machines: i + 1}
		l.put(kept[i])
	}
	if len(l.idle) != maxIdleWorlds || l.idle[0] != kept[1] {
		t.Fatalf("list holds %d worlds starting at machines=%d, want %d starting at 2", len(l.idle), l.idle[0].machines, maxIdleWorlds)
	}
	cfg := simPSTrial(1)
	cfg.Model.Layers = nil
	cfg.GPUs = 3 * DefaultGPUsPerMachine
	if w := l.take(cfg); w != kept[2] {
		t.Fatalf("take of a 3-machine PS shape returned %+v", w)
	}
	if w := l.take(cfg); w != nil {
		t.Fatalf("second take of a shape held once returned %+v", w)
	}
}
