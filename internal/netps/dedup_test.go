package netps

import (
	"fmt"
	"net"
	"testing"

	"bytescheduler/internal/metrics"
	"bytescheduler/internal/wire"
)

// TestDedupWindowBounded replays far more distinct pushes than the dedup
// window holds and checks the table stays bounded — the regression for the
// unbounded Seq-dedup growth that used to leak memory for the lifetime of
// a training run.
func TestDedupWindowBounded(t *testing.T) {
	const cap = 16
	reg := metrics.NewRegistry()
	// One shard: the dedup cap and eviction counts below assume all keys
	// share one window table, as in the pre-shard server.
	srv, err := NewServer(1, WithDedupCap(cap), WithShards(1), WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(addr)
	defer c.Close()
	const pushes = 100
	for i := 0; i < pushes; i++ {
		if err := c.Push(fmt.Sprintf("k%d", i), 0, []float32{1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.DedupSize(); got != cap {
		t.Fatalf("DedupSize = %d after %d pushes, want window cap %d", got, pushes, cap)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["netps_server_dedup_evictions_total"]; got != pushes-cap {
		t.Fatalf("evictions = %d, want %d", got, pushes-cap)
	}
	if got := snap.Gauges["netps_server_dedup_seqs"]; got != cap {
		t.Fatalf("dedup_seqs gauge = %d, want %d", got, cap)
	}
	if got := snap.Counters["netps_server_pushes_total"]; got != pushes {
		t.Fatalf("pushes counter = %d, want %d", got, pushes)
	}
}

// TestDedupClientWindowsBounded sprays pushes from more distinct client
// identities than the server tracks; the LRU client eviction must bound
// the table even when no single window fills.
func TestDedupClientWindowsBounded(t *testing.T) {
	// One shard, so DefaultDedupClients bounds one table rather than one
	// table per shard.
	srv, err := NewServer(1, WithDedupCap(4), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const clients = DefaultDedupClients + 44
	for i := 1; i <= clients; i++ {
		push := newMessage(OpPush, fmt.Sprintf("k%d", i), 0, uint64(i)<<32|1, f32(1))
		if err := writeMsg(conn, push); err != nil {
			t.Fatal(err)
		}
		if _, err := readMsg(conn); err != nil {
			t.Fatal(err)
		}
	}
	// One Seq per client: the surviving window count equals the total size.
	if got := srv.DedupSize(); got != DefaultDedupClients {
		t.Fatalf("DedupSize = %d across %d clients, want LRU bound %d",
			got, clients, DefaultDedupClients)
	}
}

// TestPushReplayAcksWithoutDoubleSum replays a push with the same Seq (a
// retry after a lost ack) and checks the aggregate counts it exactly once
// while the replay is still acknowledged.
func TestPushReplayAcksWithoutDoubleSum(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := NewServer(2, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	seq := uint64(7)<<32 | 1
	push := newMessage(OpPush, "w", 3, seq, f32(2))
	for attempt := 0; attempt < 2; attempt++ { // original + replay
		if err := writeMsg(conn, push); err != nil {
			t.Fatal(err)
		}
		resp, err := readMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		if Op(resp.Op) != OpPush || resp.Seq != seq {
			t.Fatalf("attempt %d response: %+v", attempt, resp)
		}
	}
	// Second worker's push completes the aggregate.
	push2 := newMessage(OpPush, "w", 3, uint64(8)<<32|1, f32(5))
	if err := writeMsg(conn, push2); err != nil {
		t.Fatal(err)
	}
	if _, err := readMsg(conn); err != nil {
		t.Fatal(err)
	}
	pull := newMessage(OpPull, "w", 3, uint64(7)<<32|2, nil)
	if err := writeMsg(conn, pull); err != nil {
		t.Fatal(err)
	}
	resp, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := wire.Floats(nil, resp.Header, resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 7 {
		t.Fatalf("aggregate = %v, want [7] (replayed push summed twice?)", vals)
	}
	if got := reg.Snapshot().Counters["netps_server_dedup_hits_total"]; got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}
}
