package netps

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/metrics"
	"bytescheduler/internal/wire"
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
	srv, err := NewServer(1, func(s *Server) { s.shardCount = 8 }, WithServerMetrics(reg))
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
			c := NewClient(addr, WithClientID(uint32(id+1)), WithSeed(int64(id)))
			c.pullTimeout = 30 * time.Second
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
		c := NewClient(addr, WithClientID(uint32(clients+i+1)))
		c.pullTimeout = 5 * time.Second
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
// completed by another connection, a push and its pull pipelined in one
// write, and an unknown op.
func TestServeOverPipe(t *testing.T) {
	srv, err := NewServer(2, func(s *Server) { s.shardCount = 2 })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	attach := func() net.Conn {
		cli, side := net.Pipe()
		sc := &srvConn{s: srv, conn: wire.NewConn(side)}
		srv.mu.Lock()
		srv.conns[side] = sc
		srv.mu.Unlock()
		srv.wg.Add(1)
		srv.goroutines.Add(1)
		go srv.serve(sc)
		return cli
	}
	a, b := attach(), attach()
	defer a.Close()
	defer b.Close()

	rt := func(conn net.Conn, m message) message {
		t.Helper()
		if err := writeMsg(conn, m); err != nil {
			t.Fatal(err)
		}
		resp, err := readMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Worker A pushes; its pull parks on the entry until worker B's push
	// completes the aggregate and answers it on A's connection.
	if resp := rt(a, newMessage(OpPush, "w", 1, 1<<32|1, f32(1))); Op(resp.Op) != OpPush {
		t.Fatalf("push A: %+v", resp)
	}
	pulled := make(chan message, 1)
	go func() {
		pulled <- rt(a, newMessage(OpPull, "w", 1, 1<<32|2, nil))
	}()
	select {
	case resp := <-pulled:
		t.Fatalf("pull answered before aggregation completed: %+v", resp)
	case <-time.After(50 * time.Millisecond):
	}
	if resp := rt(b, newMessage(OpPush, "w", 1, 2<<32|1, f32(4))); Op(resp.Op) != OpPush {
		t.Fatalf("push B: %+v", resp)
	}
	resp := <-pulled
	if vals, err := wire.Floats(nil, resp.Header, resp.Payload); err != nil || len(vals) != 1 || vals[0] != 5 {
		t.Fatalf("parked pull payload = %v (%v), want [5]", resp.Payload, err)
	}

	// A push and its pull back to back in one write, as a client's writer
	// sends what queued behind it: the push is acknowledged while the pull
	// parks, and worker B's push completes the aggregate it waits on.
	if _, err := a.Write(stream(t, newMessage(OpPush, "x", 1, 1<<32|3, f32(2)), newMessage(OpPull, "x", 1, 1<<32|4, nil))); err != nil {
		t.Fatal(err)
	}
	if resp, err := readMsg(a); err != nil || Op(resp.Op) != OpPush || resp.Seq != 1<<32|3 {
		t.Fatalf("push ahead of a parked pull answered %+v (%v), want its ack", resp, err)
	}
	if resp := rt(b, newMessage(OpPush, "x", 1, 2<<32|2, f32(3))); Op(resp.Op) != OpPush {
		t.Fatalf("push B x: %+v", resp)
	}
	resp, err = readMsg(a)
	if err != nil {
		t.Fatal(err)
	}
	if vals, err := wire.Floats(nil, resp.Header, resp.Payload); err != nil || resp.Seq != 1<<32|4 || len(vals) != 1 || vals[0] != 5 {
		t.Fatalf("pipelined pull = %v (%v), want [5]", vals, err)
	}

	// Worker B drains its pulls so both entries reclaim.
	for _, key := range []string{"w", "x"} {
		resp := rt(b, newMessage(OpPull, key, 1, 2<<32|9, nil))
		if Op(resp.Op) != OpPull {
			t.Fatalf("pull B %s: %+v", key, resp)
		}
	}

	// Unknown op: rejected, then the connection is dropped.
	if err := writeMsg(a, newMessage(99, "z", 0, 1<<32|6, nil)); err != nil {
		t.Fatal(err)
	}
	if resp, err := readMsg(a); err != nil || Op(resp.Op) != OpErr {
		t.Fatalf("unknown op response = %+v (%v), want OpErr", resp, err)
	}
	if _, err := readMsg(a); err == nil {
		t.Fatal("connection survived an unknown op")
	}

	waitOutstanding(t, srv, 0)
}
