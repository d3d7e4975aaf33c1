package netps

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/wire"
)

// --- Reclaimed-entry pull replay (the retried-pull-forever-hang fix) ---

// TestReclaimedPullReplayedFromCompletedLog reclaims an aggregate (served
// to every worker), then retries the pull as a client whose response was
// lost on the wire would. Pre-fix, resolvePull recreated an empty entry
// and parked the pull where no push would ever answer it; the
// key's last reclaimed aggregate must re-answer with the original payload
// instead.
func TestReclaimedPullReplayedFromCompletedLog(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := NewServer(1, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	push := newMessage(OpPush, "w", 1, uint64(1)<<32|1, f32(3, 4))
	if resp, _, _ := srv.processPush(push, new(pushScratch)); Op(resp.Op) != OpPush {
		t.Fatalf("push response: %+v", resp)
	}
	pull := newMessage(OpPull, "w", 1, uint64(1)<<32|2, nil)
	result, parked, errResp := srv.resolvePull(pull, nil)
	if parked || errResp != nil || result == nil {
		t.Fatalf("first pull not ready: result=%v parked=%v err=%v", result, parked, errResp)
	}
	srv.countPullServed(pull, result) // response written; entry reclaimed
	if srv.Outstanding() != 0 {
		t.Fatalf("entry not reclaimed: Outstanding = %d", srv.Outstanding())
	}
	// The response is lost; the client retries with a fresh Seq.
	retry := newMessage(OpPull, "w", 1, uint64(1)<<32|3, nil)
	result, parked, errResp = srv.resolvePull(retry, nil)
	if parked {
		t.Fatal("retried pull parked on a recreated entry — would hang forever")
	}
	if errResp != nil {
		t.Fatalf("retried pull rejected: %s", errResp.Payload)
	}
	got, err := wire.Floats(nil, wire.Header{}, result.payload)
	if err != nil || len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("replayed payload = %v (%v), want [3 4]", got, err)
	}
	if n := reg.Snapshot().Counters["netps_server_replayed_pulls_total"]; n != 1 {
		t.Fatalf("replayed_pulls = %d, want 1", n)
	}
	if srv.Outstanding() != 0 {
		t.Fatalf("replayed pull recreated an entry: Outstanding = %d", srv.Outstanding())
	}
}

// TestReclaimedPullFailsFastAfterPayloadEvicted evicts an aggregate by
// reclaiming its key's next iteration, which replaces it, and checks a late
// retry of the older pull gets OpErr rather than blocking on an entry that
// will never complete.
func TestReclaimedPullFailsFastAfterPayloadEvicted(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := NewServer(1, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for iter := uint32(1); iter <= 2; iter++ {
		push := newMessage(OpPush, "w", iter, uint64(1)<<32|uint64(2*iter), f32(3))
		srv.processPush(push, new(pushScratch))
		pull := newMessage(OpPull, "w", iter, uint64(1)<<32|uint64(2*iter+1), nil)
		result, parked, errResp := srv.resolvePull(pull, nil)
		if parked || errResp != nil {
			t.Fatalf("pull %d not ready: parked=%v err=%v", iter, parked, errResp)
		}
		srv.countPullServed(pull, result)
	}
	retry := newMessage(OpPull, "w", 1, uint64(1)<<32|9, nil)
	result, parked, errResp := srv.resolvePull(retry, nil)
	if parked || result != nil {
		t.Fatal("retry after its aggregate was replaced must fail fast, not park or serve")
	}
	if errResp == nil || !strings.Contains(string(errResp.Payload), errAggregateReclaimed) {
		t.Fatalf("errResp = %+v, want %q", errResp, errAggregateReclaimed)
	}
	if n := reg.Snapshot().Counters["netps_server_lost_pulls_total"]; n != 1 {
		t.Fatalf("lost_pulls = %d, want 1", n)
	}
}

// TestReclaimedLateKeepsLaterIteration reclaims a key's iterations out of
// order, as the goroutine that answered a pull can when it counts it served
// after the puller has moved on: iteration 1's last pull is written but not
// yet counted while iteration 2 is pushed, pulled and reclaimed. The late
// reclaim of iteration 1 must leave iteration 2 in the key's done slot and
// give iteration 1's sum back, so the next aggregate sums into it.
func TestReclaimedLateKeepsLaterIteration(t *testing.T) {
	srv, ps := refServer(t, 1)
	ps.push(1, 1)
	lateReq, late := ps.pull(1, 1<<32|1) // written, not yet counted
	ps.push(2, 2)
	ps.serve(ps.pull(2, 1<<32|2))
	lateSum := &late.payload[0]
	ps.serve(lateReq, late)
	if _, _, errResp := srv.resolvePull(newMessage(OpPull, "k", 1, 1<<32|3, nil), nil); errResp == nil || string(errResp.Payload) != errAggregateReclaimed {
		t.Fatalf("pull of the late-reclaimed iteration answered %v, want %q", errResp, errAggregateReclaimed)
	}
	req, a := ps.pull(2, 1<<32|4)
	checkConst(t, "a retried pull of the later iteration", ps.decode(req, a), refFloats, 2)
	ps.serve(req, a)
	ps.push(3, 3)
	req, a = ps.pull(3, 1<<32|5)
	if &a.payload[0] != lateSum {
		t.Fatal("iteration 3 was not summed into iteration 1's buffer — the late reclaim kept its reference")
	}
	ps.serve(req, a)
}

// TestReclaimedPullReplayEndToEnd drives the same scenario over TCP: a
// second client pulls a (key, iter) the first client already drained.
// Pre-fix this pull hung until the test's pull deadline.
func TestReclaimedPullReplayEndToEnd(t *testing.T) {
	srv, err := NewServer(1)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c1 := NewClient(addr, WithClientID(1))
	c1.pullTimeout = 2 * time.Second
	defer c1.Close()
	if err := c1.Push("w", 5, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Pull("w", 5); err != nil {
		t.Fatal(err)
	}
	// Entry reclaimed. A retried pull (different Seq — here a second
	// client entirely) must still be answered.
	c2 := NewClient(addr, WithClientID(2))
	c2.pullTimeout, c2.maxRetries = 2*time.Second, 0
	defer c2.Close()
	vals, err := c2.Pull("w", 5)
	if err != nil {
		t.Fatalf("retried pull after reclaim: %v", err)
	}
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("replayed aggregate = %v, want [1 2]", vals)
	}
}

// --- netps_msgs_total frame accounting ---

// TestMsgsCountsRetriedFrames runs one logical push against a server that
// swallows the first frame and drops the connection, forcing a retry.
// Two frames hit the wire for one logical request; pre-fix the counter
// said one.
func TestMsgsCountsRetriedFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		// First connection: read the frame, then kill the connection
		// without answering — a transport fault after the write.
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		readMsg(bufio.NewReader(conn)) //nolint:errcheck // dropping on purpose
		conn.Close()
		// Retry connection: behave.
		conn, err = ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, err := readMsg(bufio.NewReader(conn))
		if err != nil {
			return
		}
		writeMsg(conn, pushAck(req)) //nolint:errcheck // test server
	}()
	reg := metrics.NewRegistry()
	c := NewClient(ln.Addr().String(), WithSeed(1), WithMetrics(reg))
	c.timeout, c.maxRetries = 2*time.Second, 2
	c.retryDelay.Base, c.retryDelay.Max = time.Millisecond, 10*time.Millisecond
	defer c.Close()
	if err := c.Push("k", 0, []float32{1}); err != nil {
		t.Fatalf("push: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["netps_requests_total"]; got != 1 {
		t.Fatalf("requests = %d, want 1 logical request", got)
	}
	if got := snap.Counters["netps_msgs_total"]; got != 2 {
		t.Fatalf("msgs = %d, want 2 wire frames (original + retry)", got)
	}
	if got := snap.Counters["netps_retries_total"]; got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
}

// --- backoff overflow clamp ---

// TestBackoffOverflowStillSleeps exercises the uncapped-backoff overflow:
// with an uncapped backoff (Max 0), a deep retry attempt used to shift the delay
// negative and skip sleeping entirely, turning the retry loop into a hot
// spin. An uncapped delay now saturates (wire.Backoff), so the test reads
// the delay the client would sleep instead of sleeping it.
func TestBackoffOverflowStillSleeps(t *testing.T) {
	const base = 4 * time.Millisecond
	c := NewClient("127.0.0.1:1", WithSeed(7))
	c.retryDelay.Base, c.retryDelay.Max = base, 0
	defer c.Close()
	for _, attempt := range []int{45, 64, 200} { // shifted past int64, incl. past the width
		if d := c.retryDelay.Delay(attempt, 1); d < base {
			t.Fatalf("delay(%d) = %v — overflow would skip the sleep", attempt, d)
		}
	}
}

// TestBackoffOverflowClampsToMax keeps the capped behavior: overflow with
// a max configured clamps to the max, not the base.
func TestBackoffOverflowClampsToMax(t *testing.T) {
	c := NewClient("127.0.0.1:1", WithSeed(7))
	c.retryDelay.Base, c.retryDelay.Max = time.Millisecond, 5*time.Millisecond
	defer c.Close()
	start := time.Now()
	c.backoff(90)
	elapsed := time.Since(start)
	if elapsed < 2*time.Millisecond {
		t.Fatalf("backoff(90) slept %v, want ~max (5ms±jitter)", elapsed)
	}
}

// --- a just-answered idle connection must not delay anyone else ---

// TestIdleAnsweredConnDoesNotDelayFreshClient: client A's pull parks on
// aggregation, client B's push completes it, and A then goes idle on its
// just-answered connection. However the server waits for A's next frame,
// the wait must cost no other connection anything: client C's fresh
// request must complete fast.
func TestIdleAnsweredConnDoesNotDelayFreshClient(t *testing.T) {
	_, addr := startServer(t, 2)

	a := NewClient(addr, WithClientID(1))
	a.pullTimeout = 10 * time.Second
	defer a.Close()
	b := NewClient(addr, WithClientID(2))
	defer b.Close()
	c := NewClient(addr, WithClientID(3))
	c.pullTimeout = 10 * time.Second
	defer c.Close()

	if err := a.Push("k", 1, []float32{1}); err != nil {
		t.Fatal(err)
	}
	pulled := make(chan error, 1)
	go func() {
		_, err := a.Pull("k", 1) // parks: only 1 of 2 pushes in
		pulled <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the pull reach the server and park
	if err := b.Push("k", 1, []float32{2}); err != nil {
		t.Fatal(err)
	}
	if err := <-pulled; err != nil {
		t.Fatalf("parked pull: %v", err)
	}
	// A is now idle on its just-answered connection; time C's request.
	start := time.Now()
	if err := c.Push("fresh", 1, []float32{7, 7}); err != nil {
		t.Fatal(err)
	}
	if err := b.Push("fresh", 1, []float32{1, 1}); err != nil {
		t.Fatal(err)
	}
	vals, err := c.Pull("fresh", 1)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fresh request took %v: A's idle connection is delaying other clients", elapsed)
	}
	if len(vals) != 2 || vals[0] != 8 || vals[1] != 8 {
		t.Fatalf("fresh pull = %v, want [8 8]", vals)
	}
}

// --- empty-push rejection ---

// TestEmptyPushRejected sends a zero-length push and checks it is refused
// with OpErr — pre-fix it silently locked the entry's shape at length
// zero, poisoning every later well-formed push with "size mismatch".
func TestEmptyPushRejected(t *testing.T) {
	srv, err := NewServer(1)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(addr)
	c.maxRetries = 0
	defer c.Close()
	err = c.Push("w", 0, nil)
	if err == nil {
		t.Fatal("empty push accepted")
	}
	if _, ok := err.(*ServerError); !ok || !strings.Contains(err.Error(), "empty push") {
		t.Fatalf("empty push error = %v, want OpErr rejection", err)
	}
	// The rejected push must not have locked in a zero-length shape.
	if err := c.Push("w", 0, []float32{1, 2}); err != nil {
		t.Fatalf("well-formed push after empty push: %v", err)
	}
	vals, err := c.Pull("w", 0)
	if err != nil || len(vals) != 2 {
		t.Fatalf("pull after recovery = %v (%v), want [1 2]", vals, err)
	}
}

// --- replay state follows the entries ---

// TestDedupGaugeTracksClientEviction checks replay state lives and dies
// with its entries: three clients push three keys, each push re-sent under
// a fresh Seq, and each entry lists exactly its three pushers while the
// entries gauge matches Outstanding. Once every client has pulled (and
// retried) each key, the entries are gone, the gauge is back at zero and
// only each key's last reclaimed aggregate is left.
func TestDedupGaugeTracksClientEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := NewServer(3, func(s *Server) { s.shardCount = 1 }, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gauge := func() int { return int(reg.Snapshot().Gauges["netps_server_entries"]) }
	seq := map[int]uint64{}
	next := func(client int) uint64 { seq[client]++; return uint64(client)<<32 | seq[client] }
	for client := 1; client <= 3; client++ {
		for k := 1; k <= 3; k++ {
			pushAt(t, srv, fmt.Sprintf("k%d", k), 0, next(client), 1)
			pushAt(t, srv, fmt.Sprintf("k%d", k), 0, next(client), 1)
		}
	}
	if st := stateOf(srv); st.entries != 3 || st.maxListed != 3 || gauge() != 3 {
		t.Fatalf("after pushes: %+v, entries gauge %d; want 3 entries listing 3 clients each", st, gauge())
	}
	for client := 1; client <= 3; client++ {
		for k := 1; k <= 3; k++ {
			for range 2 { // the pull and its retry
				if got := pullAt(t, srv, fmt.Sprintf("k%d", k), 0, next(client)); len(got) != 1 || got[0] != 3 {
					t.Fatalf("client %d k%d = %v, want [3]", client, k, got)
				}
			}
		}
		want := 3 // every entry waits for its last puller
		if client == 3 {
			want = 0
		}
		if srv.Outstanding() != want || gauge() != want {
			t.Fatalf("after client %d pulled: Outstanding %d, gauge %d, want %d", client, srv.Outstanding(), gauge(), want)
		}
	}
	if st := stateOf(srv); st.entries != 0 || st.retained != 3 {
		t.Fatalf("after pulls: %+v, want no live entry and 3 retained", st)
	}
}

// --- a top-k push too short for its own count ---

// TestShortTopKPushRejected: the server used to read a top-k push's
// element count before validating the payload, so a 1–3 byte payload
// indexed past its end and panicked the serve goroutine — one bad frame
// took the whole process down. The envelope is decoded (and so
// length-checked) first now; the push is rejected like any other
// undecodable one and the connection keeps serving.
func TestShortTopKPushRejected(t *testing.T) {
	srv, err := NewServer(1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	push := newMessage(OpPush, "w", 1, 1<<32|1, []byte{0, 0, 1})
	push.Codec, push.Orig = uint8(compress.CodecTopK), 16
	if resp, _, _ := srv.processPush(push, new(pushScratch)); Op(resp.Op) != OpErr || !strings.Contains(string(resp.Payload), "undecodable") {
		t.Fatalf("short top-k push answered %+v, want an undecodable-push OpErr", resp)
	}
	push.Payload = []byte{0, 0, 0, 0} // well-formed, but carries nothing
	if resp, _, _ := srv.processPush(push, new(pushScratch)); Op(resp.Op) != OpErr {
		t.Fatalf("empty top-k push answered %+v, want OpErr", resp)
	}
	if srv.Outstanding() != 0 {
		t.Fatalf("rejected pushes left %d entries", srv.Outstanding())
	}
}
