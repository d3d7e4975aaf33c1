package netps

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/tensor"
)

// fastClient returns a client with a millisecond-scale retry budget and
// backoff so failure tests run quickly and deterministically.
func fastClient(addr string, retries int) *Client {
	c := NewClient(addr, WithSeed(42))
	c.timeout, c.maxRetries = 2*time.Second, retries
	c.retryDelay.Base, c.retryDelay.Max = 2*time.Millisecond, 20*time.Millisecond
	return c
}

func TestStalePooledConnectionRedial(t *testing.T) {
	srv, addr := startServer(t, 1)
	c := fastClient(addr, 0) // no retry budget: the redial path must cover this alone
	defer c.Close()

	if err := c.Push("w", 0, []float32{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pull("w", 0); err != nil {
		t.Fatal(err)
	}
	// The server closes the client's connection while it sits idle (e.g. an
	// idle-timeout or restart). The client must notice the stale
	// connection and carry the next requests on a fresh dial.
	srv.mu.Lock()
	for conn := range srv.conns {
		conn.Close()
	}
	srv.mu.Unlock()
	// Give the FIN/RST time to land so reuse fails rather than races.
	time.Sleep(20 * time.Millisecond)

	if err := c.Push("w", 1, []float32{2}); err != nil {
		t.Fatalf("push over a stale connection not recovered: %v", err)
	}
	got, err := c.Pull("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("value = %v, want 2", got[0])
	}
}

func TestServerCloseFailsBlockedPull(t *testing.T) {
	srv, addr := startServer(t, 2)
	c := fastClient(addr, 0)
	defer c.Close()

	if err := c.Push("w", 0, []float32{1}); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Pull("w", 0) // blocks: worker 2 never pushes
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the pull reach the waiter list
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("blocked pull returned data from a closed server")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked pull hung across server Close — waiters leaked")
	}
}

func TestServerCloseUnblocksIdleConnections(t *testing.T) {
	// A handler blocked reading on an idle client connection must
	// not wedge Close.
	srv, addr := startServer(t, 1)
	c := fastClient(addr, 0)
	defer c.Close()
	if err := c.Push("w", 0, []float32{1}); err != nil {
		t.Fatal(err)
	}
	// The client's connection keeps a server handler parked in its read.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on an idle connection handler")
	}
}

func TestListenTwiceRejectedAndCloseReturns(t *testing.T) {
	// Close stops the one accept loop it knows about: a second Listen that
	// replaced s.ln would strand the first loop and wedge Close.
	srv, _ := startServer(t, 1)
	if addr, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Errorf("second Listen bound %s, want an error", addr)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close hung after a second Listen")
	}
}

func TestTruncatedFrameFromServer(t *testing.T) {
	// A fake shard that answers every request with a truncated frame, then
	// closes: the client must error out, not hang or misparse.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := readMsg(conn); err != nil {
					return
				}
				conn.Write([]byte{byte(OpPush), 0, 0}) // torn header
			}()
		}
	}()
	c := fastClient(ln.Addr().String(), 1)
	defer c.Close()
	if err := c.Push("w", 0, []float32{1}); err == nil {
		t.Fatal("truncated response accepted")
	}
}

func TestTruncatedFrameToServer(t *testing.T) {
	srv, addr := startServer(t, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Half a header, then a hangup: the handler must drop the connection
	// and the server must stay healthy for other clients.
	conn.Write([]byte{byte(OpPush), 0, 0, 0})
	conn.Close()

	c := fastClient(addr, 0)
	defer c.Close()
	if err := c.Push("w", 0, []float32{1}); err != nil {
		t.Fatalf("server unhealthy after truncated frame: %v", err)
	}
	if srv.Outstanding() != 1 { // one live entry, awaiting its pull
		t.Fatalf("outstanding = %d, want 1", srv.Outstanding())
	}
}

// stallPuller sets up the slow-consumer scenario on a two-worker server:
// raw connection A pushes a 1 MB gradient, sends its pull and never reads
// the response; client B then pushes the same key, completing the
// aggregate A is parked on. Both ends of A are clamped to minimum-size
// socket buffers, so the response cannot fit in flight whatever the host's
// TCP buffer limits. It returns how long B's push took to be acknowledged.
func stallPuller(t *testing.T, srv *Server, addr string) time.Duration {
	t.Helper()
	grad := make([]float32, 256<<10)
	a, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	a.(*net.TCPConn).SetReadBuffer(4 << 10)
	if err := writeMsg(a, newMessage(OpPush, "big", 0, 1<<32|1, f32(grad...))); err != nil {
		t.Fatal(err)
	}
	if resp, err := readMsg(a); err != nil || Op(resp.Op) != OpPush {
		t.Fatalf("push A: %+v (%v)", resp, err)
	}
	srv.mu.Lock()
	for conn := range srv.conns { // only A's so far
		conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
	}
	srv.mu.Unlock()
	if err := writeMsg(a, newMessage(OpPull, "big", 0, 1<<32|2, nil)); err != nil {
		t.Fatal(err)
	}
	b := NewClient(addr, WithClientID(2))
	b.maxRetries = 0
	t.Cleanup(func() { b.Close() })
	start := time.Now()
	if err := b.Push("big", 0, grad); err != nil {
		t.Fatalf("push B: %v", err)
	}
	return time.Since(start)
}

// TestStalledPullerDoesNotDelayPusher: the push that completes an
// aggregate must be acknowledged without waiting for the parked pullers'
// responses to drain — a puller that stops reading its socket may only
// hold up itself.
func TestStalledPullerDoesNotDelayPusher(t *testing.T) {
	srv, addr := startServer(t, 2)
	if ack := stallPuller(t, srv, addr); ack > 2*time.Second {
		t.Fatalf("push acknowledged after %v: it waited on a stalled puller's response", ack)
	}
}

// TestWriteDeadlineDropsStalledPuller: a peer that stops draining its
// socket is dropped once a response write exceeds the write deadline,
// rather than holding its serve goroutine and the aggregate forever.
func TestWriteDeadlineDropsStalledPuller(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, addr := startServer(t, 2, WithServerMetrics(reg),
		func(s *Server) { s.writeTimeout = 500 * time.Millisecond })
	stallPuller(t, srv, addr)
	// Only B's connection may remain.
	waitFor(t, 2*time.Second, "the stalled connection to be dropped", func() bool {
		return reg.Snapshot().Gauges["netps_server_conns"] == 1
	})
}

// TestStalledPullerBoundedByWriteTimeout: a parked pull is answered by the
// push that completes its aggregate, on that pusher's serve goroutine, so a
// puller that stopped reading holds the pusher's connection for at most the
// write timeout; its own connection is then dropped. A raw connection parks
// pulls of "big" and "other" and never reads; a client's push completes
// "big", a 32 MB aggregate no loopback socket buffers can hold in flight.
func TestStalledPullerBoundedByWriteTimeout(t *testing.T) {
	const writeTimeout = 100 * time.Millisecond
	stall := func(t *testing.T) (*Server, *metrics.Registry, *Client) {
		t.Helper()
		reg := metrics.NewRegistry()
		srv, addr := startServer(t, 1, WithServerMetrics(reg),
			func(s *Server) { s.writeTimeout = writeTimeout })
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { raw.Close() })
		raw.(*net.TCPConn).SetReadBuffer(4 << 10) // whatever the host's TCP buffer limits
		for i, key := range []string{"big", "other"} {
			if err := writeMsg(raw, newMessage(OpPull, key, 0, 1<<32|uint64(i+1), nil)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 2*time.Second, "both raw pulls parked", func() bool {
			return reg.Snapshot().Gauges["netps_server_parked_pulls"] == 2
		})
		c := fastClient(addr, 0)
		t.Cleanup(func() { c.Close() })
		c.timeout = time.Minute // 32 MB under the race detector
		if err := c.Push("big", 0, make([]float32, 8<<20)); err != nil {
			t.Fatal(err)
		}
		c.timeout = 2 * time.Second
		return srv, reg, c
	}

	t.Run("the completing pusher's next round trip", func(t *testing.T) {
		_, reg, c := stall(t)
		start := time.Now()
		if err := c.Push("small", 0, []float32{1}); err != nil {
			t.Fatal(err)
		}
		if vals, err := c.Pull("small", 0); err != nil || len(vals) != 1 || vals[0] != 1 {
			t.Fatalf("pull behind the stalled response = %v (%v), want [1]", vals, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("push and pull behind a stalled puller took %v, want under 1s (write timeout %v)", took, writeTimeout)
		}
		if conns := reg.Snapshot().Gauges["netps_server_conns"]; conns != 1 {
			t.Fatalf("netps_server_conns = %d, want 1: the stalled connection dropped", conns)
		}
	})

	t.Run("Close with the stalled pull parked", func(t *testing.T) {
		srv, _, _ := stall(t)
		start := time.Now()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if took, bound := time.Since(start), writeTimeout+500*time.Millisecond; took > bound {
			t.Fatalf("Close took %v with a stalled pull parked, want under %v", took, bound)
		}
	})
}

// TestMidFrameReadDeadline: a connection that sends half a header and then
// stalls is dropped after the read deadline, while other clients are served
// throughout; a connection that has sent nothing carries no deadline.
func TestMidFrameReadDeadline(t *testing.T) {
	_, addr := startServer(t, 1, func(s *Server) { s.readTimeout = 300 * time.Millisecond })
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	start := time.Now()
	if _, err := stalled.Write([]byte{byte(OpPush), 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	dropped := make(chan error, 1)
	go func() {
		stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := stalled.Read(make([]byte, 1))
		dropped <- err
	}()
	c := fastClient(addr, 0)
	defer c.Close()
	var dropErr error
	for iter := uint32(0); dropErr == nil; iter++ {
		if err := c.Push("other", iter, []float32{1}); err != nil {
			t.Fatalf("push beside a stalled connection: %v", err)
		}
		if _, err := c.Pull("other", iter); err != nil {
			t.Fatalf("pull beside a stalled connection: %v", err)
		}
		select {
		case dropErr = <-dropped:
		case <-time.After(5 * time.Millisecond):
		}
	}
	if !errors.Is(dropErr, io.EOF) {
		t.Fatalf("stalled connection read = %v, want EOF from the server's close", dropErr)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("stalled connection dropped after %v, want ~300ms", took)
	}
	// idle has sat silent for longer than the read deadline by now.
	if err := writeMsg(idle, newMessage(OpPush, "late", 0, 3<<32|1, f32(1))); err != nil {
		t.Fatal(err)
	}
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if resp, err := readMsg(idle); err != nil || Op(resp.Op) != OpPush {
		t.Fatalf("idle connection after the deadline: %+v (%v), want a push ack", resp, err)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	// The frame reader rejects a header advertising an absurd payload
	// before any allocation (wire's own tests cover both directions).
	hdr := frame(t, newMessage(OpPush, "k", 0, 0, nil))
	for i := len(hdr) - 4; i < len(hdr); i++ {
		hdr[i] = 0xff // payloadLen ~ 4 GiB
	}
	if _, err := readMsg(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized payload length accepted")
	}
	// Wire level: a live server must drop the connection.
	_, addr := startServer(t, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readMsg(conn); err == nil {
		t.Fatal("server answered an oversized frame")
	}
}

func TestServerErrorResponses(t *testing.T) {
	_, addr := startServer(t, 1)
	c := fastClient(addr, 2)
	defer c.Close()
	if err := c.Push("w", 0, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Size mismatch is an application rejection: OpErr, not a dropped
	// connection, and not retried at the transport layer.
	err := c.Push("w", 0, []float32{1, 2, 3})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("size mismatch error = %v, want ServerError", err)
	}
	// The connection survived the rejection: the pull still works.
	got, err := c.Pull("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("pull after rejection = %v", got)
	}
}

func TestPushReplayDeduplicated(t *testing.T) {
	_, addr := startServer(t, 1)
	c := fastClient(addr, 0)
	defer c.Close()
	// Replay the same logical push (same Seq) on a second connection, as a
	// retry after a lost ack would: the sum must count it once.
	req := newMessage(OpPush, "w", 0, c.nextSeq(), f32(5))
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeMsg(conn, req); err != nil {
			t.Fatal(err)
		}
		if resp, err := readMsg(conn); err != nil || Op(resp.Op) != OpPush || resp.Seq != req.Seq {
			t.Fatalf("attempt %d: %+v (%v), want the push ack", attempt, resp, err)
		}
		conn.Close()
	}
	got, err := c.Pull("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("replayed push double-counted: sum = %v, want 5", got[0])
	}
}

// TestSchedulerRecoversFromServerCrash is the end-to-end failure drill: the
// shard dies mid-iteration with sub-tasks in flight, a replacement comes up
// on the same address moments later, and the live scheduler must ride it
// out through its retry budget — credit restored, Stats.Retries > 0, run
// completes instead of hanging.
func TestSchedulerRecoversFromServerCrash(t *testing.T) {
	srv1, addr := startServer(t, 1)

	// Client with no transport retries: every fault surfaces to the
	// scheduler so the core retry path is what recovers.
	c := fastClient(addr, 0)
	defer c.Close()

	sched := core.NewAsync(core.ByteScheduler(4096, 8192).WithMaxRetries(100))

	var crash sync.Once
	var restart sync.Once
	var srv2 *Server
	var srv2mu sync.Mutex
	kill := func() {
		srv1.Close()
		go func() {
			time.Sleep(80 * time.Millisecond)
			restart.Do(func() {
				// The old listener may linger briefly; retry the bind.
				for i := 0; i < 50; i++ {
					s, err := NewServer(1)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Listen(addr); err == nil {
						srv2mu.Lock()
						srv2 = s
						srv2mu.Unlock()
						return
					}
					time.Sleep(20 * time.Millisecond)
				}
				t.Error("replacement server never bound")
			})
		}()
	}
	defer func() {
		srv2mu.Lock()
		if srv2 != nil {
			srv2.Close()
		}
		srv2mu.Unlock()
	}()

	layerSizes := []int{2048, 4096, 1024}
	results := make([][]float32, len(layerSizes))
	var wg sync.WaitGroup
	tasks := make([]*core.Task, len(layerSizes))
	for layer, n := range layerSizes {
		layer, n := layer, n
		grad := make([]float32, n)
		for i := range grad {
			grad[i] = float32(layer + 1)
		}
		results[layer] = make([]float32, n)
		wg.Add(1)
		tasks[layer] = &core.Task{
			Tensor: tensor.Tensor{Layer: layer, Name: "w", Bytes: int64(4 * n)},
			StartErr: func(sub tensor.Sub, done func(error)) {
				key := fmt.Sprintf("L%d[%d/%d]", layer, sub.Index, sub.Count)
				lo := sub.Offset / 4
				hi := lo + sub.Bytes/4
				fail := func(err error) {
					// Pace scheduler-level retries so the budget spans
					// the outage instead of burning out instantly.
					time.Sleep(10 * time.Millisecond)
					done(err)
				}
				if err := c.Push(key, 0, grad[lo:hi]); err != nil {
					fail(err)
					return
				}
				// First successful sub-task triggers the crash: the rest
				// of the iteration is in flight when the shard dies.
				crash.Do(kill)
				sum, err := c.Pull(key, 0)
				if err != nil {
					fail(err)
					return
				}
				copy(results[layer][lo:hi], sum)
				done(nil)
			},
			OnFinished: func() { wg.Done() },
		}
		if err := sched.Enqueue(tasks[layer]); err != nil {
			t.Fatal(err)
		}
	}
	for layer := len(tasks) - 1; layer >= 0; layer-- {
		if err := sched.NotifyReady(tasks[layer]); err != nil {
			t.Fatal(err)
		}
	}

	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatal("run wedged after server crash — retry/backoff did not recover")
	}
	sched.Shutdown()

	for _, task := range tasks {
		if task.Err() != nil {
			t.Fatalf("task %s failed permanently: %v", task.Tensor, task.Err())
		}
	}
	st := sched.Stats()
	if st.Retries == 0 {
		t.Fatal("no scheduler retries recorded — the crash was not exercised")
	}
	if st.Failures != 0 {
		t.Fatalf("failures = %d, want 0", st.Failures)
	}
	if st.SubsStarted != st.SubsFinished+st.Retries {
		t.Fatalf("credit accounting broken: %+v", st)
	}
	if !sched.Drained() {
		t.Fatal("scheduler not drained — credit stranded")
	}
	// Values must be intact despite replays: workers=1, so each partition
	// equals the worker's own gradient.
	for layer := range layerSizes {
		for i, v := range results[layer] {
			if v != float32(layer+1) {
				t.Fatalf("layer %d[%d] = %v, want %v", layer, i, v, layer+1)
			}
		}
	}
}

// TestSendOnBrokenConnection: a call sent on a connection that has already
// broken settles at once with the break. The sender signals its done
// itself — no writer will ever take the frame — so the exchange returns
// the break instead of waiting forever, and leaves no second signal in
// the record for its next use.
func TestSendOnBrokenConnection(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr)
	defer c.Close()
	cc, _, err := c.conn()
	if err != nil {
		t.Fatal(err)
	}
	broke := errors.New("netps: connection broken by the test")
	c.fail(cc, broke)

	k := c.pushCall("k", 0, []float32{1})
	k.req.Seq = c.nextSeq()
	got := make(chan error, 1)
	go func() { got <- c.exchange(cc, k) }()
	select {
	case err := <-got:
		if !errors.Is(err, broke) || !errors.Is(k.err, broke) {
			t.Fatalf("exchange on a broken connection = %v (call err %v), want %v", err, k.err, broke)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exchange on a broken connection never returned")
	}
	if len(k.done) != 0 {
		t.Fatalf("the call's done holds %d stale signals after the exchange", len(k.done))
	}
	c.release(k)
}
