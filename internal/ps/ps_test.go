package ps

import (
	"fmt"
	"testing"

	"bytescheduler/internal/network"
	"bytescheduler/internal/sim"
	"bytescheduler/internal/tensor"
)

func newTestCluster(t *testing.T, eng *sim.Engine, cfg Config) *Cluster {
	t.Helper()
	fab := network.NewFabric(eng, cfg.Workers+cfg.Servers, 10, network.RDMA())
	c, err := New(eng, fab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// callbacks is the closure form of a Receiver; nil fields are skipped.
type callbacks struct{ pushAcked, pullable, pullDelivered, pullAcked func() }

func call(fn func()) {
	if fn != nil {
		fn()
	}
}

func (cb callbacks) PushAcked(int)     { call(cb.pushAcked) }
func (cb callbacks) Pullable(int)      { call(cb.pullable) }
func (cb callbacks) PullDelivered(int) { call(cb.pullDelivered) }
func (cb callbacks) PullAcked(int)     { call(cb.pullAcked) }

// pushFn, pullFn and whenPullableFn are Push, Pull and WhenPullable taking
// closures, interning the tensor on every call.
func (c *Cluster) pushFn(iter, worker int, sub tensor.Sub, onAcked func()) {
	c.Push(iter, worker, c.TensorID(sub.Parent), sub, callbacks{pushAcked: onAcked})
}

func (c *Cluster) pullFn(iter, worker int, sub tensor.Sub, onDelivered, onAcked func()) {
	c.Pull(iter, worker, c.TensorID(sub.Parent), sub, callbacks{pullDelivered: onDelivered, pullAcked: onAcked})
}

func (c *Cluster) whenPullableFn(iter, worker int, sub tensor.Sub, fn func()) {
	c.WhenPullable(iter, worker, c.TensorID(sub.Parent), sub, callbacks{pullable: fn})
}

func sub(layer int, name string, bytes int64) tensor.Sub {
	return tensor.Partition(tensor.Tensor{Layer: layer, Name: name, Bytes: bytes}, 0)[0]
}

func TestNewValidation(t *testing.T) {
	eng := sim.New()
	fab := network.NewFabric(eng, 3, 10, network.TCP())
	if _, err := New(eng, fab, Config{Workers: 0, Servers: 1}); err == nil {
		t.Error("accepted zero workers")
	}
	if _, err := New(eng, fab, Config{Workers: 2, Servers: 2}); err == nil {
		t.Error("accepted mismatched fabric size")
	}
	if _, err := New(eng, fab, Config{Workers: 2, Servers: 1}); err != nil {
		t.Errorf("rejected valid config: %v", err)
	}
}

func TestSyncPushPullSingleWorker(t *testing.T) {
	eng := sim.New()
	c := newTestCluster(t, eng, Config{Workers: 1, Servers: 1})
	var pushAcked, pullDone bool
	s := sub(0, "w", 1<<20)
	c.pushFn(0, 0, s, func() { pushAcked = true })
	c.pullFn(0, 0, s, func() { pullDone = true }, nil)
	eng.Run()
	if !pushAcked || !pullDone {
		t.Fatalf("pushAcked=%v pullDone=%v", pushAcked, pullDone)
	}
	if c.Outstanding() != 0 {
		t.Fatalf("leaked %d aggregation entries", c.Outstanding())
	}
}

func TestSyncWaitsForAllWorkers(t *testing.T) {
	eng := sim.New()
	c := newTestCluster(t, eng, Config{Workers: 2, Servers: 1})
	s := sub(0, "w", 1<<20)
	var pull0At float64 = -1
	c.pushFn(0, 0, s, nil)
	c.pullFn(0, 0, s, func() { pull0At = eng.Now() }, nil)
	// Worker 1 pushes much later.
	var push1Start float64 = 0.5
	eng.Schedule(push1Start, func() { c.pushFn(0, 1, s, nil) })
	eng.Schedule(push1Start, func() { c.pullFn(0, 1, s, nil, nil) })
	eng.Run()
	if pull0At < push1Start {
		t.Fatalf("sync pull served at %v before worker 1 pushed at %v", pull0At, push1Start)
	}
}

func TestAsyncDoesNotWait(t *testing.T) {
	eng := sim.New()
	c := newTestCluster(t, eng, Config{Workers: 2, Servers: 1, Async: true})
	s := sub(0, "w", 1<<20)
	var pull0At float64 = -1
	c.pushFn(0, 0, s, nil)
	c.pullFn(0, 0, s, func() { pull0At = eng.Now() }, nil)
	// Worker 1 never pushes; async worker 0 must still be served.
	eng.Run()
	if pull0At < 0 {
		t.Fatal("async pull never served")
	}
	if pull0At > 0.1 {
		t.Fatalf("async pull too late: %v", pull0At)
	}
}

func TestAsyncRequiresOwnPush(t *testing.T) {
	eng := sim.New()
	c := newTestCluster(t, eng, Config{Workers: 2, Servers: 1, Async: true})
	s := sub(0, "w", 1<<20)
	served := false
	// Worker 1 pushes, worker 0 only pulls: worker 0 must wait (its own
	// push is the async readiness condition).
	c.pushFn(0, 1, s, nil)
	c.pullFn(0, 0, s, func() { served = true }, nil)
	eng.Run()
	if served {
		t.Fatal("async pull served without the worker's own push")
	}
}

func TestPartitionGranularityPulls(t *testing.T) {
	// Partition 0 of a tensor must be pullable while partition 1 is still
	// being pushed (Theorem 1 condition 3).
	eng := sim.New()
	fab := network.NewFabric(eng, 2, 10, network.RDMA())
	c, err := New(eng, fab, Config{Workers: 1, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parent := tensor.Tensor{Layer: 0, Name: "w", Bytes: 100 << 20}
	parts := tensor.Partition(parent, 50<<20)
	var part0PulledAt, part1PushedAt float64 = -1, -1
	c.pushFn(0, 0, parts[0], nil)
	c.pullFn(0, 0, parts[0], func() { part0PulledAt = eng.Now() }, nil)
	c.pushFn(0, 0, parts[1], func() { part1PushedAt = eng.Now() })
	c.pullFn(0, 0, parts[1], nil, nil)
	eng.Run()
	if part0PulledAt < 0 || part1PushedAt < 0 {
		t.Fatal("operations did not complete")
	}
	// Had the pull waited for the whole tensor to be pushed (no partition
	// granularity), it would finish no earlier than 3 half-transfers:
	// push(part0)+push(part1)+pull(part0). With overlap it finishes in ~2.
	// One idle-link message: θ plus size over the goodput, which at
	// 10 Gbps is under RDMA's cap.
	prof := network.RDMA()
	tHalf := prof.MsgOverhead + float64(50<<20)/(network.GbpsToBytes(10)*prof.Efficiency)
	if part0PulledAt > 2.5*tHalf {
		t.Fatalf("pull of part 0 at %v, want ~%v (overlap with push of part 1)", part0PulledAt, 2*tHalf)
	}
}

func TestRoundRobinTensorAssignment(t *testing.T) {
	eng := sim.New()
	c := newTestCluster(t, eng, Config{Workers: 1, Servers: 3})
	s0 := c.ServerOf(sub(0, "a", 1))
	s1 := c.ServerOf(sub(1, "b", 1))
	s2 := c.ServerOf(sub(2, "c", 1))
	s3 := c.ServerOf(sub(3, "d", 1))
	if s0 != 0 || s1 != 1 || s2 != 2 || s3 != 0 {
		t.Fatalf("round robin gave %d %d %d %d", s0, s1, s2, s3)
	}
	// Sticky: same tensor, same server, regardless of partition.
	parent := tensor.Tensor{Layer: 0, Name: "a", Bytes: 1000}
	for _, p := range tensor.Partition(parent, 100) {
		if got := c.ServerOf(p); got != s0 {
			t.Fatalf("partition %d of tensor a on server %d, want %d", p.Index, got, s0)
		}
	}
}

func TestSpreadPartitionsAssignment(t *testing.T) {
	eng := sim.New()
	c := newTestCluster(t, eng, Config{Workers: 1, Servers: 3, Assignment: SpreadPartitions})
	parent := tensor.Tensor{Layer: 0, Name: "a", Bytes: 900}
	parts := tensor.Partition(parent, 300)
	seen := map[int]bool{}
	for _, p := range parts {
		seen[c.ServerOf(p)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("3 partitions landed on %d servers, want 3", len(seen))
	}
	// Sticky across calls.
	for _, p := range parts {
		a := c.ServerOf(p)
		b := c.ServerOf(p)
		if a != b {
			t.Fatal("assignment not sticky")
		}
	}
}

func TestLoadImbalance(t *testing.T) {
	// One dominant tensor, naive assignment: all its bytes land on one
	// server (big-array striping off, or it would stripe the 64 MB tensor).
	// With spreading, the load evens out.
	run := func(assign Assignment, unit int64) float64 {
		eng := sim.New()
		c := newTestCluster(t, eng, Config{Workers: 2, Servers: 2, Assignment: assign})
		c.shardBytes = 0
		big := tensor.Tensor{Layer: 0, Name: "big", Bytes: 64 << 20}
		small := tensor.Tensor{Layer: 1, Name: "small", Bytes: 1 << 20}
		for w := 0; w < 2; w++ {
			for _, tt := range []tensor.Tensor{big, small} {
				for _, p := range tensor.Partition(tt, unit) {
					c.pushFn(0, w, p, nil)
					c.pullFn(0, w, p, nil, nil)
				}
			}
		}
		eng.Run()
		return c.LoadImbalance()
	}
	naive := run(RoundRobinTensor, 0)
	spread := run(SpreadPartitions, 4<<20)
	if naive < 1.5 {
		t.Fatalf("naive imbalance %.2f, want heavily imbalanced", naive)
	}
	if spread > 1.2 {
		t.Fatalf("spread imbalance %.2f, want ~1.0", spread)
	}
}

func TestIterationsAreIndependent(t *testing.T) {
	eng := sim.New()
	c := newTestCluster(t, eng, Config{Workers: 2, Servers: 1})
	s := sub(0, "w", 1<<20)
	var it1Pull float64 = -1
	// Iteration 0: both workers. Iteration 1: both workers, later.
	c.pushFn(0, 0, s, nil)
	c.pushFn(0, 1, s, nil)
	c.pullFn(0, 0, s, nil, nil)
	c.pullFn(0, 1, s, nil, nil)
	eng.Schedule(0.1, func() {
		c.pushFn(1, 0, s, nil)
		c.pushFn(1, 1, s, nil)
		c.pullFn(1, 0, s, func() { it1Pull = eng.Now() }, nil)
		c.pullFn(1, 1, s, nil, nil)
	})
	eng.Run()
	if it1Pull < 0.1 {
		t.Fatalf("iteration 1 pull at %v; cross-iteration aggregation leak", it1Pull)
	}
	if c.Outstanding() != 0 {
		t.Fatalf("leaked %d entries", c.Outstanding())
	}
}

func TestUpdateCostDelaysPull(t *testing.T) {
	eng := sim.New()
	fab := network.NewFabric(eng, 2, 10, network.RDMA())
	slow, err := New(eng, fab, Config{Workers: 1, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow.updateSecPerByte = 1e-6
	s := sub(0, "w", 1<<20)
	var slowAt float64
	slow.pushFn(0, 0, s, nil)
	slow.pullFn(0, 0, s, func() { slowAt = eng.Now() }, nil)
	eng.Run()

	eng2 := sim.New()
	fab2 := network.NewFabric(eng2, 2, 10, network.RDMA())
	fast, err := New(eng2, fab2, Config{Workers: 1, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast.updateSecPerByte = 0
	var fastAt float64
	fast.pushFn(0, 0, s, nil)
	fast.pullFn(0, 0, s, func() { fastAt = eng2.Now() }, nil)
	eng2.Run()
	wantDelta := 1e-6 * float64(1<<20)
	if slowAt-fastAt < wantDelta*0.9 {
		t.Fatalf("update cost not applied: slow=%v fast=%v", slowAt, fastAt)
	}
}

func TestWorkerRangePanics(t *testing.T) {
	eng := sim.New()
	c := newTestCluster(t, eng, Config{Workers: 1, Servers: 1})
	for name, fn := range map[string]func(){
		"push": func() { c.pushFn(0, 5, sub(0, "w", 1), nil) },
		"pull": func() { c.pullFn(0, -1, sub(0, "w", 1), nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range worker accepted", name)
				}
			}()
			fn()
		}()
	}
}

func TestAssignmentString(t *testing.T) {
	if RoundRobinTensor.String() != "round-robin-tensor" || SpreadPartitions.String() != "spread-partitions" {
		t.Fatal("Assignment.String wrong")
	}
	if Assignment(9).String() == "" {
		t.Fatal("unknown assignment should still format")
	}
}

// tally is a Receiver counting every callback per (kind, part), and pulling
// a partition the moment it turns pullable, as the plugin's download Core
// does when credit allows.
type tally struct {
	c            *Cluster
	iter, worker int
	subs         []tensor.Sub
	counts       map[string]int
}

func (tl *tally) note(kind string, part int) { tl.counts[fmt.Sprintf("%s/%d", kind, part)]++ }

func (tl *tally) PushAcked(part int)     { tl.note("pushAcked", part) }
func (tl *tally) PullDelivered(part int) { tl.note("pullDelivered", part) }
func (tl *tally) PullAcked(part int)     { tl.note("pullAcked", part) }
func (tl *tally) Pullable(part int) {
	tl.note("pullable", part)
	tl.c.Pull(tl.iter, tl.worker, tl.c.TensorID(tl.subs[part].Parent), tl.subs[part], tl)
}

// Requests and aggregation slots are recycled across partitions and
// iterations. Every receiver must still hear each of its four callbacks
// exactly once per partition — sync and async, striped or not — and nothing
// may be left outstanding.
func TestRecycledRecordsServeEveryCallbackOnce(t *testing.T) {
	for _, tc := range []struct {
		cfg        Config
		shardBytes int64
	}{
		{Config{Workers: 3, Servers: 2, Assignment: SpreadPartitions}, shardBytes},
		{Config{Workers: 3, Servers: 2, Assignment: SpreadPartitions, Async: true}, shardBytes},
		{Config{Workers: 2, Servers: 3}, 1 << 10}, // every partition striped over 3 servers
	} {
		cfg := tc.cfg
		eng := sim.New()
		c := newTestCluster(t, eng, cfg)
		c.shardBytes = tc.shardBytes
		subs := tensor.Partition(tensor.Tensor{Layer: 1, Name: "w", Bytes: 40 << 10}, 4<<10)
		id := c.TensorID(subs[0].Parent)
		var tallies []*tally
		for iter := 0; iter < 4; iter++ {
			iter := iter
			eng.Schedule(float64(iter), func() {
				for w := 0; w < cfg.Workers; w++ {
					tl := &tally{c: c, iter: iter, worker: w, subs: subs, counts: map[string]int{}}
					tallies = append(tallies, tl)
					for _, s := range subs {
						c.WhenPullable(iter, w, id, s, tl)
						c.Push(iter, w, id, s, tl)
					}
				}
			})
		}
		eng.Run()
		for _, tl := range tallies {
			if len(tl.counts) != 4*len(subs) {
				t.Fatalf("%+v: iter %d worker %d heard %d distinct callbacks, want %d: %v",
					cfg, tl.iter, tl.worker, len(tl.counts), 4*len(subs), tl.counts)
			}
			for k, n := range tl.counts {
				if n != 1 {
					t.Fatalf("%+v: iter %d worker %d heard %s %d times", cfg, tl.iter, tl.worker, k, n)
				}
			}
		}
		if c.Outstanding() != 0 {
			t.Fatalf("%+v: %d aggregation slots never reclaimed", cfg, c.Outstanding())
		}
		// One iteration's worth of records carried all four.
		perIter := cfg.Workers * len(subs)
		if got := len(c.freeReqs); got == 0 || got > 3*perIter {
			t.Fatalf("%+v: %d request records for %d requests per iteration: not recycled", cfg, got, 3*perIter)
		}
	}
}
