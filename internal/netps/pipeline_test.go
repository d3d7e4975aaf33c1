// Tests for the serving model: each client pipelines every request on its
// one connection, and the server keeps reading past a parked pull, so
// responses may come back in another order than their requests went out.
package netps

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/metrics"
)

// TestPipelinedCrossedOrders: two clients issue crossed orders, each on
// its one connection — A pushes x, pulls x, pushes y; B pushes y, pulls y,
// pushes x. Each pull is completed only by the other client's last push,
// which that client writes behind its own parked pull, so both finish only
// if the server keeps reading a connection while a pull on it is parked.
func TestPipelinedCrossedOrders(t *testing.T) {
	reg := metrics.NewRegistry()
	_, addr := startServer(t, 2, WithServerMetrics(reg))
	parked := func(n int64) {
		waitFor(t, 5*time.Second, fmt.Sprintf("%d parked pulls", n), func() bool {
			return reg.Snapshot().Gauges["netps_server_parked_pulls"] == n
		})
	}
	a, b := fastClient(addr, 0), fastClient(addr, 0)
	defer a.Close()
	defer b.Close()

	if err := a.Push("x", 0, []float32{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Push("y", 0, []float32{20}); err != nil {
		t.Fatal(err)
	}
	pulled := make(chan error, 2)
	pull := func(c *Client, key string, want float32) {
		vals, err := c.Pull(key, 0)
		if err == nil && (len(vals) != 1 || vals[0] != want) {
			err = fmt.Errorf("pull %s = %v, want [%v]", key, vals, want)
		}
		pulled <- err
	}
	go pull(a, "x", 3)
	parked(1)
	go pull(b, "y", 30)
	parked(2)
	// Each push is written behind its own client's parked pull.
	if err := a.Push("y", 0, []float32{10}); err != nil {
		t.Fatalf("A's push behind its parked pull: %v", err)
	}
	if err := b.Push("x", 0, []float32{2}); err != nil {
		t.Fatalf("B's push behind its parked pull: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-pulled; err != nil {
			t.Fatal(err)
		}
	}
	if conns := reg.Snapshot().Gauges["netps_server_conns"]; conns != 2 {
		t.Fatalf("netps_server_conns = %d, want one connection per client", conns)
	}
}

// TestPipelinedPassHoldsOneConnection: a client with a whole pass
// outstanding — 19 partitions, each a push and then a pull that parks on
// the other worker — holds exactly one server connection, and the server
// runs two goroutines whatever the number parked: its accept loop and that
// connection's. The other worker's 19 pushes, queued behind one write,
// then complete all 19 in one writev.
func TestPipelinedPassHoldsOneConnection(t *testing.T) {
	const parts = 19
	reg := metrics.NewRegistry()
	srv, addr := startServer(t, 2, WithServerMetrics(reg))
	a := NewClient(addr, WithClientID(1))
	defer a.Close()
	errs := make(chan error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			key := fmt.Sprintf("L%02d", p)
			if err := a.Push(key, 0, []float32{float32(p)}); err != nil {
				errs <- err
				return
			}
			vals, err := a.Pull(key, 0)
			if err == nil && (len(vals) != 1 || vals[0] != float32(3*p)) {
				err = fmt.Errorf("%s = %v, want [%d]", key, vals, 3*p)
			}
			errs <- err
		}(p)
	}
	waitFor(t, 5*time.Second, "the whole pass parked", func() bool {
		return reg.Snapshot().Gauges["netps_server_parked_pulls"] == parts
	})
	if conns := reg.Snapshot().Gauges["netps_server_conns"]; conns != 1 {
		t.Fatalf("netps_server_conns = %d with %d calls outstanding, want 1", conns, 2*parts)
	}
	if g := srv.Goroutines(); g != 2 {
		t.Fatalf("server goroutines = %d with %d pulls parked, want 2: the accept loop and one connection", g, parts)
	}

	breg := metrics.NewRegistry()
	b := NewClient(addr, WithClientID(2), WithMetrics(breg))
	defer b.Close()
	pushQueued(t, b, parts, func(p int) (string, []float32) {
		return fmt.Sprintf("L%02d", p), []float32{float32(2 * p)}
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := breg.Snapshot()
	if m, w := snap.Counters["netps_msgs_total"], snap.Counters["netps_writes_total"]; m != parts || w != 1 {
		t.Fatalf("%d queued pushes took %d frames in %d writes, want %d in 1", parts, m, w, parts)
	}
}

// pushQueued makes n pushes on c at once — push i carries item(i) — while
// the test holds c's writer, so every frame is queued before any is
// written, then drains the queue as send does and waits for every ack.
// The n frames therefore leave in one writev, whatever the scheduler does.
func pushQueued(t *testing.T, c *Client, n int, item func(i int) (string, []float32)) {
	t.Helper()
	cc, _, err := c.conn()
	if err != nil {
		t.Fatal(err)
	}
	cc.mu.Lock()
	cc.writing = true
	cc.mu.Unlock()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		key, grad := item(i)
		go func() { errs <- c.Push(key, 0, grad) }()
	}
	waitFor(t, 5*time.Second, fmt.Sprintf("%d queued pushes", n), func() bool {
		cc.mu.Lock()
		defer cc.mu.Unlock()
		return len(cc.queue) == n
	})
	cc.mu.Lock()
	c.drain(cc)
	cc.mu.Unlock()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAbandonedCallsSettleOnce: Close with calls pending fails each of them
// exactly once. Eight pulls park; Close fails all eight, each call record
// comes back to the free list once, and none carries a second completion
// signal into its next use. Later calls fail too.
func TestAbandonedCallsSettleOnce(t *testing.T) {
	const pulls = 8
	reg := metrics.NewRegistry()
	_, addr := startServer(t, 2, WithServerMetrics(reg))
	c := NewClient(addr)
	errs := make(chan error, pulls)
	for i := 0; i < pulls; i++ {
		go func(i int) {
			_, err := c.Pull(fmt.Sprintf("k%d", i), 0)
			errs <- err
		}(i)
	}
	waitFor(t, 5*time.Second, "every pull parked", func() bool {
		return reg.Snapshot().Gauges["netps_server_parked_pulls"] == pulls
	})
	c.Close()
	for i := 0; i < pulls; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a pending pull succeeded across Close")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d pending pulls never failed after Close", pulls-i, pulls)
		}
	}
	c.mu.Lock()
	records := append([]*call(nil), c.calls...)
	c.mu.Unlock()
	if len(records) != pulls {
		t.Fatalf("%d call records back on the free list, want %d", len(records), pulls)
	}
	seen := map[*call]bool{}
	for _, k := range records {
		if seen[k] || len(k.done) != 0 {
			t.Fatalf("a call record was released twice or holds a stale completion (%d signals)", len(k.done))
		}
		seen[k] = true
	}
	if err := c.Push("late", 0, []float32{1}); err == nil {
		t.Fatal("push after Close succeeded")
	}
}
