package netps

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/metrics"
	"bytescheduler/internal/wire"
)

// TestPushBatchAggregates round-trips pushes from two workers, each
// pushing two partitions at once, all four concurrently, checking that
// aggregation works exactly as for pushes made one at a time.
func TestPushBatchAggregates(t *testing.T) {
	srv, addr := startServer(t, 2)
	c0, c1 := NewClient(addr), NewClient(addr)
	defer c0.Close()
	defer c1.Close()

	errs := make(chan error, 4)
	for c, scale := range map[*Client]float32{c0: 1, c1: 10} {
		go func() { errs <- c.Push("a", 0, []float32{1 * scale, 2 * scale}) }()
		go func() { errs <- c.Push("b", 0, []float32{3 * scale}) }()
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
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
// N pushes that queue behind one write leave as N frames on the wire
// (netps_msgs_total) in one writev (netps_writes_total) — the live
// counterpart of the simulator's per-message overhead model, paid per
// write rather than per frame.
func TestBatchAmortizesMessages(t *testing.T) {
	_, addr := startServer(t, 1)
	reg := metrics.NewRegistry()
	c := NewClient(addr, WithMetrics(reg))
	defer c.Close()

	const n = 16
	pushQueued(t, c, n, func(i int) (string, []float32) {
		return fmt.Sprintf("k%d", i), []float32{float32(i)}
	})
	snap := reg.Snapshot()
	if got := snap.Counters["netps_msgs_total"]; got != n {
		t.Fatalf("netps_msgs_total = %d, want %d frames", got, n)
	}
	if got := snap.Counters["netps_writes_total"]; got != 1 {
		t.Fatalf("netps_writes_total = %d, want the %d frames in one writev", got, n)
	}
	if got := snap.Counters["netps_requests_total"]; got != n {
		t.Fatalf("netps_requests_total = %d, want %d", got, n)
	}
}

// TestBatchReplayDeduplicated replays the same pushes (same Seqs, as after
// a lost ack) as back-to-back frames on one connection and checks the
// server acknowledges the duplicates without double-summing.
func TestBatchReplayDeduplicated(t *testing.T) {
	_, addr := startServer(t, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	pushes := stream(t,
		newMessage(OpPush, "a", 0, 1<<32|1, f32(5)),
		newMessage(OpPush, "b", 0, 1<<32|2, f32(7)),
	)
	for replay := 0; replay < 3; replay++ {
		if _, err := conn.Write(pushes); err != nil {
			t.Fatal(err)
		}
		for _, seq := range []uint64{1<<32 | 1, 1<<32 | 2} {
			resp, err := readMsg(conn)
			if err != nil {
				t.Fatal(err)
			}
			if Op(resp.Op) != OpPush || resp.Seq != seq {
				t.Fatalf("replay %d answered %v seq %x, want the ack of %x", replay, resp.Op, resp.Seq, seq)
			}
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

// TestBatchRejectsUnbatchableOps writes a pull that must park between
// pushes on one connection: the frames behind the parked pull are answered
// without waiting for it — the push right behind it is acknowledged
// before the pull, which only the frame after that push can complete.
func TestBatchRejectsUnbatchableOps(t *testing.T) {
	_, addr := startServer(t, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write(stream(t,
		newMessage(OpPush, "ok", 0, 2<<32|1, f32(1)),
		newMessage(OpPull, "wait", 0, 2<<32|2, nil), // parks: "wait" has no push yet
		newMessage(OpPush, "behind", 0, 2<<32|3, f32(2)),
		newMessage(OpPush, "wait", 0, 2<<32|4, f32(3)), // completes "wait"
	)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var order []uint64
	var pulled message
	for len(order) < 4 {
		resp, err := readMsg(conn)
		if err != nil {
			t.Fatalf("after %d responses (seqs %x): %v", len(order), order, err)
		}
		order = append(order, resp.Seq)
		if resp.Seq == 2<<32|2 {
			pulled = resp
		}
	}
	if i, j := slices.Index(order, 2<<32|3), slices.Index(order, 2<<32|2); i < 0 || j < 0 || i > j {
		t.Fatalf("responses in seq order %x: the push behind the parked pull waited for it", order)
	}
	if Op(pulled.Op) != OpPull || !bytes.Equal(pulled.Payload, f32(3)) {
		t.Fatalf("parked pull answered %+v, want the pushed [3]", pulled)
	}
}

// TestBatcherSizeFlush pushes through a Batcher and checks each push has
// completed by the time Push returns: there is no size threshold to reach.
func TestBatcherSizeFlush(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr)
	defer c.Close()
	b := NewBatcher(c)
	defer b.Close()

	var outcomes []error
	done := func(err error) { outcomes = append(outcomes, err) }
	for i, key := range []string{"a", "b"} {
		b.Push(key, 0, make([]float32, 10), done)
		if len(outcomes) != i+1 {
			t.Fatalf("%d outcomes after %d pushes: Push returned before its push completed", len(outcomes), i+1)
		}
		if outcomes[i] != nil {
			t.Fatalf("push %d: %v", i, outcomes[i])
		}
	}
}

// TestBatcherDeadlineFlush checks a lone small push completes when Push
// returns: there is no deadline timer to wait out.
func TestBatcherDeadlineFlush(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr)
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
	default:
		t.Fatal("Push returned before its push completed")
	}
}

// TestBatcherFlushAsync checks concurrent pushes complete with no flush at
// all, and that FlushAsync — still a valid flush hook — returns at once.
func TestBatcherFlushAsync(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr)
	defer c.Close()
	b := NewBatcher(c)

	const n = 4
	ch := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Push(fmt.Sprintf("k%d", i), 0, []float32{1}, func(err error) { ch <- err })
		}(i)
	}
	wg.Wait()
	if len(ch) != n {
		t.Fatalf("%d of %d pushes complete with no flush", len(ch), n)
	}
	for i := 0; i < n; i++ {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	b.FlushAsync()
	b.Close()
}

// TestBatcherCloseFlushesAndRejects checks a push before Close completes
// and pushes after it fail through their done callback.
func TestBatcherCloseFlushesAndRejects(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr)
	defer c.Close()
	b := NewBatcher(c)

	ch := make(chan error, 1)
	b.Push("a", 0, []float32{1}, func(err error) { ch <- err })
	b.Close()
	if err := <-ch; err != nil {
		t.Fatalf("push before Close: %v", err)
	}
	b.Push("late", 0, []float32{1}, func(err error) { ch <- err })
	if err := <-ch; err == nil {
		t.Fatal("push after Close succeeded")
	}
}

// TestBatchEncodingBounds feeds two back-to-back responses, and every
// truncation of them, to a client connection's reader with both calls
// pending: a whole frame settles its call with its response, and every
// call a cut leaves unanswered fails with the stream's end — io.EOF on a
// frame boundary, io.ErrUnexpectedEOF inside one — never with a partial
// frame's contents.
func TestBatchEncodingBounds(t *testing.T) {
	reqs := []message{
		newMessage(OpPush, "k", 1, 9, nil),
		newMessage(OpPull, "k2", 1, 10, nil),
	}
	resps := []message{
		newMessage(OpPush, "k", 1, 9, nil),
		newMessage(OpPull, "k2", 1, 10, f32(1.5, -2)),
	}
	data := stream(t, resps...)
	first := len(frame(t, resps[0]))
	for cut := 0; cut <= len(data); cut++ {
		calls := readResponses(t, reqs, data[:cut])
		push, pull := calls[0], calls[1]
		wantEnd := io.ErrUnexpectedEOF
		if cut == 0 || cut == first {
			wantEnd = io.EOF
		}
		if cut >= first {
			if push.err != nil {
				t.Fatalf("cut %d: a whole push ack settled with %v", cut, push.err)
			}
		} else if !errors.Is(push.err, wantEnd) {
			t.Fatalf("cut %d: a push missing its ack settled with %v, want %v", cut, push.err, wantEnd)
		}
		switch {
		case cut == len(data):
			vals, err := wire.Floats(nil, pull.resp.Header, pull.resp.Payload)
			if pull.err != nil || err != nil || !slices.Equal(vals, []float32{1.5, -2}) {
				t.Fatalf("whole stream: pull settled with %v (%v, %v)", vals, pull.err, err)
			}
		case cut > first:
			if !errors.Is(pull.err, wantEnd) || pull.resp.Payload != nil {
				t.Fatalf("cut %d: a pull missing part of its response settled with %d bytes (%v), want %v", cut, len(pull.resp.Payload), pull.err, wantEnd)
			}
		}
	}
	// A response whose Seq names a call for another key breaks the stream:
	// the call fails instead of taking it.
	calls := readResponses(t, reqs[:1], frame(t, newMessage(OpPush, "other", 1, 9, nil)))
	if calls[0].err == nil {
		t.Fatal("a response for another key settled the call")
	}
}

// stream concatenates frames as one connection carries them.
func stream(t testing.TB, msgs ...message) []byte {
	var b []byte
	for _, m := range msgs {
		b = append(b, frame(t, m)...)
	}
	return b
}

// streamConn is a net.Conn whose reads come from r, whose writes vanish,
// and whose Close does nothing: a server's half of a connection, replayed.
type streamConn struct {
	net.Conn
	r io.Reader
}

func (s streamConn) Read(p []byte) (int, error)  { return s.r.Read(p) }
func (s streamConn) Write(p []byte) (int, error) { return len(p), nil }
func (s streamConn) Close() error                { return nil }

// readResponses runs a client connection's reader over data, the bytes a
// server sent, with one call pending per request in reqs, and returns the
// calls once the reader has stopped at the end of data. It fails the test
// unless every call settled exactly once.
func readResponses(t testing.TB, reqs []message, data []byte) []*call {
	t.Helper()
	c := NewClient("stream")
	cc := &clientConn{conn: wire.NewConn(streamConn{r: bytes.NewReader(data)}), pending: make(map[uint64]*call)}
	calls := make([]*call, len(reqs))
	for i, req := range reqs {
		k := c.newCall(Op(req.Op), req.Key, req.Iter)
		k.req = req
		calls[i], cc.pending[req.Seq] = k, k
	}
	stopped := make(chan struct{})
	c.readers.Add(1)
	go func() {
		c.read(cc)
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("the reader blocked: a call was settled twice")
	}
	for i, k := range calls {
		if len(k.done) != 1 {
			t.Fatalf("call %d (seq %x) never settled", i, k.req.Seq)
		}
		<-k.done
	}
	return calls
}
