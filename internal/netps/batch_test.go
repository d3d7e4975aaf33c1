package netps

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/metrics"
)

// TestPushBatchAggregates round-trips a coalesced push from two workers,
// checking aggregation works exactly as for plain messages.
func TestPushBatchAggregates(t *testing.T) {
	srv, addr := startServer(t, 2)
	c0, c1 := NewClient(addr), NewClient(addr)
	defer c0.Close()
	defer c1.Close()

	for c, scale := range map[*Client]float32{c0: 1, c1: 10} {
		errs, err := c.PushBatch([]BatchPush{
			{Key: "a", Iter: 0, Grad: []float32{1 * scale, 2 * scale}},
			{Key: "b", Iter: 0, Grad: []float32{3 * scale}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("sub-push %d: %v", i, e)
			}
		}
	}
	// Both workers pull, so the server reclaims the entries.
	for _, c := range []*Client{c0, c1} {
		a, err := c.Pull("a", 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Pull("b", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, []float32{11, 22}) || !slices.Equal(b, []float32{33}) {
			t.Fatalf("pulled a=%v b=%v, want [11 22] [33]", a, b)
		}
	}
	waitOutstanding(t, srv, 0)
}

// TestBatchAmortizesMessages pins the θ-amortization claim in metric form:
// pushing N partitions through PushBatch produces one wire frame
// (netps_msgs_total) but N logical messages (netps_batched_msgs_total) —
// the live counterpart of the simulator's per-message overhead model.
func TestBatchAmortizesMessages(t *testing.T) {
	_, addr := startServer(t, 1)
	reg := metrics.NewRegistry()
	c := NewClient(addr, WithMetrics(reg))
	defer c.Close()

	const n = 16
	items := make([]BatchPush, n)
	for i := range items {
		items[i] = BatchPush{Key: fmt.Sprintf("k%d", i), Iter: 0, Grad: []float32{float32(i)}}
	}
	if _, err := c.PushBatch(items); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["netps_msgs_total"]; got != 1 {
		t.Fatalf("netps_msgs_total = %d, want 1 wire frame for the whole batch", got)
	}
	if got := snap.Counters["netps_batched_msgs_total"]; got != n {
		t.Fatalf("netps_batched_msgs_total = %d, want %d", got, n)
	}
	if got := snap.Counters["netps_batches_total"]; got != 1 {
		t.Fatalf("netps_batches_total = %d, want 1", got)
	}
}

// TestBatchReplayDeduplicated replays an identical OpBatch frame (same
// per-sub Seqs, as after a lost ack) and checks the server acknowledges the
// duplicates without double-summing — sub-message Seq stability is what
// makes batch retries safe.
func TestBatchReplayDeduplicated(t *testing.T) {
	_, addr := startServer(t, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	subs := []message{
		newMessage(OpPush, "a", 0, 1<<32|1, f32(5)),
		newMessage(OpPush, "b", 0, 1<<32|2, f32(7)),
	}
	payload, err := encodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for replay := 0; replay < 3; replay++ {
		if err := writeMsg(conn, newMessage(OpBatch, "", 0, 0, payload)); err != nil {
			t.Fatal(err)
		}
		resp, err := readMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		if Op(resp.Op) != OpBatch {
			t.Fatalf("replay %d answered %v", replay, resp.Op)
		}
	}

	c := NewClient(addr)
	defer c.Close()
	got, err := c.Pull("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("a = %v after replays, want 5 (dedup failed)", got)
	}
	if got, err := c.Pull("b", 0); err != nil || got[0] != 7 {
		t.Fatalf("b = %v, %v after replays, want 7", got, err)
	}
}

// TestBatchRejectsUnbatchableOps crafts a batch containing a pull and a
// nested batch and checks the server rejects those sub-messages
// individually — still one OpBatch response, connection kept — while
// answering the rest.
func TestBatchRejectsUnbatchableOps(t *testing.T) {
	_, addr := startServer(t, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	subs := []message{
		newMessage(OpPush, "ok", 0, 2<<32|1, f32(1)),
		newMessage(OpPull, "ok", 0, 2<<32|2, nil),
		newMessage(OpBatch, "nested", 0, 2<<32|3, nil),
	}
	payload, err := encodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn, newMessage(OpBatch, "", 0, 0, payload)); err != nil {
		t.Fatal(err)
	}
	resp, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeBatch(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if Op(resp.Op) != OpBatch || len(out) != 3 {
		t.Fatalf("batch answered op %v with %d subs, want OpBatch with 3", resp.Op, len(out))
	}
	if Op(out[0].Op) != OpPush {
		t.Fatalf("valid sub-push answered %v", out[0].Op)
	}
	for i, what := range map[int]string{1: "sub-pull", 2: "nested batch"} {
		if Op(out[i].Op) != OpErr || string(out[i].Payload) != "unbatchable op" || out[i].Seq != subs[i].Seq {
			t.Fatalf("%s answered %+v, want OpErr \"unbatchable op\"", what, out[i])
		}
	}
	// The rejection cost nothing else: the connection still serves, and the
	// push that rode along was summed.
	if err := writeMsg(conn, newMessage(OpPull, "ok", 0, 2<<32|4, nil)); err != nil {
		t.Fatal(err)
	}
	if resp, err := readMsg(conn); err != nil || Op(resp.Op) != OpPull || !bytes.Equal(resp.Payload, f32(1)) {
		t.Fatalf("pull after rejected batch = %+v (%v), want the pushed [1]", resp, err)
	}
}

// TestBatcherSizeFlush fills the queue past BatchBytes and checks the flush
// happens synchronously, without waiting out the deadline.
func TestBatcherSizeFlush(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr)
	c.batchBytes, c.batchDelay = 64, time.Hour
	defer c.Close()
	b := NewBatcher(c)
	defer b.Close()

	var mu sync.Mutex
	var outcomes []error
	done := func(err error) {
		mu.Lock()
		outcomes = append(outcomes, err)
		mu.Unlock()
	}
	// 2 x 40 bytes crosses the 64-byte threshold on the second push.
	b.Push("a", 0, make([]float32, 10), done)
	b.Push("b", 0, make([]float32, 10), done)

	mu.Lock()
	defer mu.Unlock()
	if len(outcomes) != 2 {
		t.Fatalf("%d outcomes after size flush, want 2 (deadline was 1h)", len(outcomes))
	}
	for i, err := range outcomes {
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
}

// TestBatcherDeadlineFlush queues one small push and waits for the deadline
// timer to write it.
func TestBatcherDeadlineFlush(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr)
	c.batchDelay = 5 * time.Millisecond
	defer c.Close()
	b := NewBatcher(c)
	defer b.Close()

	ch := make(chan error, 1)
	b.Push("a", 0, []float32{1}, func(err error) { ch <- err })
	select {
	case err := <-ch:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline flush never fired")
	}
}

// TestBatcherFlushAsync checks the scheduler-hook flush path: FlushAsync
// must return without blocking on I/O and the batch must still complete.
func TestBatcherFlushAsync(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr)
	c.batchDelay = time.Hour
	defer c.Close()
	b := NewBatcher(c)

	const n = 4
	ch := make(chan error, n)
	for i := 0; i < n; i++ {
		b.Push(fmt.Sprintf("k%d", i), 0, []float32{1}, func(err error) { ch <- err })
	}
	b.FlushAsync()
	for i := 0; i < n; i++ {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("async flush never completed")
		}
	}
	b.Close()
}

// TestBatcherCloseFlushesAndRejects checks Close writes the remainder and
// subsequent pushes fail through their done callback.
func TestBatcherCloseFlushesAndRejects(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr)
	c.batchDelay = time.Hour
	defer c.Close()
	b := NewBatcher(c)

	ch := make(chan error, 1)
	b.Push("a", 0, []float32{1}, func(err error) { ch <- err })
	b.Close()
	if err := <-ch; err != nil {
		t.Fatalf("close flush: %v", err)
	}
	b.Push("late", 0, []float32{1}, func(err error) { ch <- err })
	if err := <-ch; err == nil {
		t.Fatal("push after Close succeeded")
	}
}

// TestBatchEncodingBounds checks decodeBatch survives truncated and ragged
// payloads without panicking.
func TestBatchEncodingBounds(t *testing.T) {
	subs := []message{
		newMessage(OpPush, "k", 1, 9, []byte{1, 2, 3, 4}),
		newMessage(OpPull, "k2", 1, 10, nil),
	}
	payload, err := encodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Key != "k" || out[1].Seq != 10 {
		t.Fatalf("decodeBatch = %+v", out)
	}
	// A prefix ending exactly on a sub-message boundary is a valid shorter
	// batch; every other cut must be rejected as truncation.
	first, err := encodeBatch(subs[:1])
	if err != nil {
		t.Fatal(err)
	}
	boundary := map[int]bool{len(first): true}
	for cut := 1; cut < len(payload); cut++ {
		if boundary[cut] {
			continue
		}
		if _, err := decodeBatch(payload[:cut]); err == nil {
			t.Fatalf("truncated batch at %d accepted", cut)
		}
	}
}
