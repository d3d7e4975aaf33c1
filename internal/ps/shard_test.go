package ps

import (
	"testing"

	"bytescheduler/internal/network"
	"bytescheduler/internal/sim"
)

func shardCluster(t *testing.T, eng *sim.Engine, workers, servers int, shard int64) (*Cluster, *network.Fabric) {
	t.Helper()
	fab := network.NewFabric(eng, workers+servers, 10, network.RDMA())
	c, err := New(eng, fab, Config{Workers: workers, Servers: servers})
	if err != nil {
		t.Fatal(err)
	}
	c.shardBytes = shard
	return c, fab
}

func TestShardingSpreadsBigTensor(t *testing.T) {
	eng := sim.New()
	c, _ := shardCluster(t, eng, 1, 4, 8<<20)
	big := sub(0, "big", 64<<20)
	c.pushFn(0, 0, big, nil)
	c.pullFn(0, 0, big, nil, nil)
	eng.Run()
	loads := c.recvBytes
	for s, b := range loads {
		if b != 16<<20 {
			t.Fatalf("server %d received %d, want even 16MB stripes: %v", s, b, loads)
		}
	}
	if c.LoadImbalance() > 1.001 {
		t.Fatalf("imbalance %.3f after striping", c.LoadImbalance())
	}
}

func TestShardingThresholdInclusive(t *testing.T) {
	// A tensor exactly at the threshold stays whole.
	eng := sim.New()
	c, _ := shardCluster(t, eng, 1, 4, 8<<20)
	at := sub(0, "edge", 8<<20)
	c.pushFn(0, 0, at, nil)
	eng.Run()
	nonZero := 0
	for _, b := range c.recvBytes {
		if b > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("threshold-sized tensor striped across %d servers, want 1", nonZero)
	}
}

func TestShardingDisabled(t *testing.T) {
	eng := sim.New()
	c, _ := shardCluster(t, eng, 1, 4, 0)
	big := sub(0, "big", 64<<20)
	c.pushFn(0, 0, big, nil)
	eng.Run()
	nonZero := 0
	for _, b := range c.recvBytes {
		if b > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("sharding disabled but %d servers received data", nonZero)
	}
}

func TestShardedPushAckOnce(t *testing.T) {
	eng := sim.New()
	c, _ := shardCluster(t, eng, 2, 4, 1<<20)
	big := sub(0, "big", 16<<20)
	acks := 0
	c.pushFn(0, 0, big, func() { acks++ })
	c.pushFn(0, 1, big, nil)
	eng.Run()
	if acks != 1 {
		t.Fatalf("push acked %d times, want exactly 1 (after all stripes)", acks)
	}
}

func TestShardedPullDeliversOnce(t *testing.T) {
	eng := sim.New()
	c, _ := shardCluster(t, eng, 2, 4, 1<<20)
	big := sub(0, "big", 16<<20)
	delivered, acked := 0, 0
	for w := 0; w < 2; w++ {
		c.pushFn(0, w, big, nil)
	}
	c.pullFn(0, 0, big, func() { delivered++ }, func() { acked++ })
	c.pullFn(0, 1, big, nil, nil)
	eng.Run()
	if delivered != 1 || acked != 1 {
		t.Fatalf("delivered=%d acked=%d, want 1/1", delivered, acked)
	}
	if c.Outstanding() != 0 {
		t.Fatalf("leaked %d agg entries", c.Outstanding())
	}
}

func TestShardedWhenPullableFiresOnce(t *testing.T) {
	eng := sim.New()
	c, _ := shardCluster(t, eng, 2, 4, 1<<20)
	big := sub(0, "big", 16<<20)
	fired := 0
	c.whenPullableFn(0, 0, big, func() { fired++ })
	for w := 0; w < 2; w++ {
		c.pushFn(0, w, big, nil)
	}
	// Pull both workers so the aggregation entries drain.
	for w := 0; w < 2; w++ {
		c.pullFn(0, w, big, nil, nil)
	}
	eng.Run()
	if fired != 1 {
		t.Fatalf("WhenPullable fired %d times, want exactly 1 (after all stripes aggregate)", fired)
	}
}

func TestShardedSingleServerNoOp(t *testing.T) {
	// With one server there is nothing to stripe across.
	eng := sim.New()
	c, _ := shardCluster(t, eng, 1, 1, 1<<20)
	big := sub(0, "big", 16<<20)
	done := false
	c.pushFn(0, 0, big, nil)
	c.pullFn(0, 0, big, func() { done = true }, nil)
	eng.Run()
	if !done {
		t.Fatal("pull never completed")
	}
}

func TestShardedPipeliningBeatsWholeTensor(t *testing.T) {
	// Striping a big tensor across servers parallelizes push and pull, so
	// the round trip must be meaningfully faster than the unsharded one.
	roundTrip := func(shard int64) float64 {
		eng := sim.New()
		c, _ := shardCluster(t, eng, 1, 4, shard)
		big := sub(0, "big", 64<<20)
		c.pushFn(0, 0, big, nil)
		var at float64
		c.pullFn(0, 0, big, func() { at = eng.Now() }, nil)
		eng.Run()
		return at
	}
	whole := roundTrip(0)
	striped := roundTrip(8 << 20)
	if striped >= whole*0.8 {
		t.Fatalf("striping did not speed the round trip: %.4f vs %.4f", striped, whole)
	}
}
