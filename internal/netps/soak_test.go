package netps

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/metrics"
)

// TestSoak256Clients drives 256 concurrent clients through several
// push/pull iterations against the sharded server — the race-detector
// workout for the shard locks and the serve goroutines. It also checks the
// goroutine economy: exactly one serve goroutine per live connection, and
// none left once the clients are gone.
func TestSoak256Clients(t *testing.T) {
	const (
		clients = 256
		iters   = 4
	)
	reg := metrics.NewRegistry()
	srv, err := NewServer(1,
		WithShards(8),
		WithDedupClients(2*clients),
		WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	errs := make(chan error, clients)
	var wg sync.WaitGroup
	var ready, release sync.WaitGroup
	ready.Add(clients)
	release.Add(1)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := NewClient(addr,
				WithClientID(uint32(id+1)),
				WithSeed(int64(id)),
				WithPullTimeout(30*time.Second))
			defer c.Close()
			key := fmt.Sprintf("layer-%d", id)
			// Dial before the barrier so the goroutine-count check below
			// sees every connection live at once.
			if err := c.Push(key, 0, []float32{1}); err != nil {
				errs <- fmt.Errorf("client %d warmup: %w", id, err)
				ready.Done()
				release.Wait()
				return
			}
			ready.Done()
			release.Wait()
			for iter := 1; iter <= iters; iter++ {
				if err := c.Push(key, uint32(iter), []float32{float32(iter), 2}); err != nil {
					errs <- fmt.Errorf("client %d push iter %d: %w", id, iter, err)
					return
				}
				vals, err := c.Pull(key, uint32(iter))
				if err != nil {
					errs <- fmt.Errorf("client %d pull iter %d: %w", id, iter, err)
					return
				}
				if len(vals) != 2 || vals[0] != float32(iter) || vals[1] != 2 {
					errs <- fmt.Errorf("client %d iter %d: got %v", id, iter, vals)
					return
				}
			}
		}(i)
	}
	ready.Wait()
	// All 256 connections are dialed and answered once: the accept loop
	// plus one serve goroutine each.
	if g := srv.Goroutines(); g != clients+1 {
		t.Errorf("server goroutines = %d with %d live clients, want %d", g, clients, clients+1)
	}
	release.Done()
	wg.Wait()
	// Every client has closed its connection: no serve goroutine may outlive
	// its connection.
	waitFor(t, 2*time.Second, "serve goroutines to exit", func() bool { return srv.Goroutines() == 1 })
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	// Warmup (iter 0) was pushed once per distinct key and pulled once, so
	// every entry must have been reclaimed.
	for i := 0; i < clients; i++ {
		c := NewClient(addr, WithClientID(uint32(clients+i+1)), WithPullTimeout(5*time.Second))
		if _, err := c.Pull(fmt.Sprintf("layer-%d", i), 0); err != nil {
			c.Close()
			t.Fatalf("drain warmup key %d: %v", i, err)
		}
		c.Close()
	}
	waitOutstanding(t, srv, 0)
}

// TestServeOverPipe exercises the serve loop end to end over net.Pipe — no
// sockets, no listener, any net.Conn: pushes, ready pulls, parked pulls
// completed by another connection, batches, and an unknown op.
func TestServeOverPipe(t *testing.T) {
	srv, err := NewServer(2, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	attach := func() net.Conn {
		cli, side := net.Pipe()
		sc := &srvConn{s: srv, conn: side, br: bufio.NewReaderSize(side, 4096)}
		srv.mu.Lock()
		srv.conns[side] = sc
		srv.mu.Unlock()
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			srv.serve(sc)
		}()
		return cli
	}
	a, b := attach(), attach()
	defer a.Close()
	defer b.Close()

	rt := func(conn net.Conn, m message) message {
		t.Helper()
		if err := writeMessage(conn, m); err != nil {
			t.Fatal(err)
		}
		resp, err := readMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Worker A pushes; its pull parks until worker B's push completes the
	// aggregate — A's serve goroutine waits on a channel meanwhile.
	if resp := rt(a, message{Op: OpPush, Key: "w", Iter: 1, Seq: 1<<32 | 1, Payload: Encode([]float32{1})}); resp.Op != OpPush {
		t.Fatalf("push A: %+v", resp)
	}
	pulled := make(chan message, 1)
	go func() {
		pulled <- rt(a, message{Op: OpPull, Key: "w", Iter: 1, Seq: 1<<32 | 2})
	}()
	select {
	case resp := <-pulled:
		t.Fatalf("pull answered before aggregation completed: %+v", resp)
	case <-time.After(50 * time.Millisecond):
	}
	if resp := rt(b, message{Op: OpPush, Key: "w", Iter: 1, Seq: 2<<32 | 1, Payload: Encode([]float32{4})}); resp.Op != OpPush {
		t.Fatalf("push B: %+v", resp)
	}
	resp := <-pulled
	if vals, err := Decode(resp.Payload); err != nil || len(vals) != 1 || vals[0] != 5 {
		t.Fatalf("parked pull payload = %v (%v), want [5]", resp.Payload, err)
	}

	// A batch of push+pull against an aggregate B completes mid-batch.
	subs := []message{
		{Op: OpPush, Key: "x", Iter: 1, Seq: 1<<32 | 3, Payload: Encode([]float32{2})},
		{Op: OpPull, Key: "x", Iter: 1, Seq: 1<<32 | 4},
	}
	payload, err := encodeBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	batched := make(chan message, 1)
	go func() {
		batched <- rt(a, message{Op: OpBatch, Seq: 1<<32 | 5, Payload: payload})
	}()
	if resp := rt(b, message{Op: OpPush, Key: "x", Iter: 1, Seq: 2<<32 | 2, Payload: Encode([]float32{3})}); resp.Op != OpPush {
		t.Fatalf("push B x: %+v", resp)
	}
	env := <-batched
	if env.Op != OpBatch {
		t.Fatalf("batch envelope: %+v", env)
	}
	resps, err := decodeBatch(env.Payload)
	if err != nil || len(resps) != 2 {
		t.Fatalf("batch decode: %v (%v)", resps, err)
	}
	if vals, err := Decode(resps[1].Payload); err != nil || len(vals) != 1 || vals[0] != 5 {
		t.Fatalf("batched pull = %v (%v), want [5]", vals, err)
	}

	// Worker B drains its pulls so both entries reclaim.
	for _, key := range []string{"w", "x"} {
		resp := rt(b, message{Op: OpPull, Key: key, Iter: 1, Seq: 2<<32 | 9})
		if resp.Op != OpPull {
			t.Fatalf("pull B %s: %+v", key, resp)
		}
	}

	// Unknown op: rejected, then the connection is dropped.
	if err := writeMessage(a, message{Op: 99, Key: "z", Seq: 1<<32 | 6}); err != nil {
		t.Fatal(err)
	}
	if resp, err := readMessage(a); err != nil || resp.Op != OpErr {
		t.Fatalf("unknown op response = %+v (%v), want OpErr", resp, err)
	}
	if _, err := readMessage(a); err == nil {
		t.Fatal("connection survived an unknown op")
	}

	waitOutstanding(t, srv, 0)
}
