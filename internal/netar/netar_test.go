package netar

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/tensor"
	"bytescheduler/internal/wire"
)

// seg builds an OpData frame; writeMsg and readMsg put one frame on a raw
// test socket; f32 is a raw fp32 payload.
func seg(key string, iter uint32, seq uint64, step, chunk uint16, payload []byte) message {
	return message{Header: wire.Header{Op: uint8(OpData), Iter: iter, Seq: seq, Step: step, Chunk: chunk, Key: key}, Payload: payload}
}

func writeMsg(w io.Writer, m message) error {
	return wire.NewConn(sink{w: w}).WriteFrame(m.Header, m.Payload)
}

// sink is a net.Conn whose writes go to w: a wire.Conn's write side alone.
type sink struct {
	net.Conn
	w io.Writer
}

func (s sink) Write(p []byte) (int, error) { return s.w.Write(p) }

func readMsg(r io.Reader) (m message, err error) {
	m.Header, m.Payload, err = wire.Read(r)
	return m, err
}

func f32(v ...float32) []byte {
	p, _, _ := wire.AppendFloats(nil, compress.Identity(), v)
	return p
}

func TestProtocolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := seg("L03[1/4]", 7, 99, 3, 2, f32(1.5, -2))
	if err := writeMsg(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Header != in.Header || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestProtocolEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMsg(&buf, seg("k", 0, 0, 0, 0, nil)); err != nil {
		t.Fatal(err)
	}
	out, err := readMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Payload) != 0 || out.Key != "k" {
		t.Fatalf("empty payload mishandled: %+v", out)
	}
}

func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		want []int
	}{
		{10, 4, []int{0, 3, 6, 8, 10}},
		{4, 4, []int{0, 1, 2, 3, 4}},
		{3, 4, []int{0, 1, 2, 3, 3}},
		{0, 3, []int{0, 0, 0, 0}},
		{7, 1, []int{0, 7}},
	} {
		got := make([]int, tc.m+1)
		for c := range got {
			got[c] = chunkBound(tc.n, tc.m, c)
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("chunkBound(%d,%d,0..%d) = %v, want %v", tc.n, tc.m, tc.m, got, tc.want)
		}
	}
}

// buildRing creates an M-peer loopback ring with every peer listening and
// dialed to its successor, torn down on test cleanup.
func buildRing(t testing.TB, m int, opts ...Option) []*Peer {
	t.Helper()
	peers := make([]*Peer, m)
	for r := 0; r < m; r++ {
		p, err := NewPeer(r, m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		peers[r] = p
		t.Cleanup(p.Close)
	}
	for r := 0; r < m; r++ {
		if err := peers[r].Dial(peers[(r+1)%m].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return peers
}

// runAll runs one collective on every peer concurrently and returns each
// peer's result.
func runAll(t *testing.T, peers []*Peer, key string, iter uint32, inputs [][]float32) [][]float32 {
	t.Helper()
	out := make([][]float32, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for r := range peers {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[r], errs[r] = peers[r].AllReduce(key, iter, inputs[r])
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return out
}

func TestAllReduceSums(t *testing.T) {
	for _, m := range []int{1, 2, 3, 4} {
		for _, n := range []int{0, 1, 3, 17, 1024} {
			t.Run(fmt.Sprintf("m=%d,n=%d", m, n), func(t *testing.T) {
				peers := buildRing(t, m)
				inputs := make([][]float32, m)
				want := make([]float32, n)
				for r := 0; r < m; r++ {
					inputs[r] = make([]float32, n)
					for i := range inputs[r] {
						inputs[r][i] = float32(r+1) * float32(i%7+1)
						want[i] += inputs[r][i]
					}
				}
				got := runAll(t, peers, "g", 0, inputs)
				for r := 0; r < m; r++ {
					if len(got[r]) != n {
						t.Fatalf("rank %d returned %d values, want %d", r, len(got[r]), n)
					}
					for i := range want {
						if got[r][i] != want[i] {
							t.Fatalf("rank %d [%d] = %v, want %v", r, i, got[r][i], want[i])
						}
					}
				}
				// Pending table drained: no leaked slots.
				for r, p := range peers {
					p.mu.Lock()
					leaked := len(p.slots)
					p.mu.Unlock()
					if leaked != 0 {
						t.Fatalf("rank %d leaked %d slots", r, leaked)
					}
				}
			})
		}
	}
}

// TestConcurrentKeyedOps issues many collectives per peer concurrently and
// in different per-peer orders — the keyed-slot dispatch must sort the
// interleaved segments out.
func TestConcurrentKeyedOps(t *testing.T) {
	const m, ops, n = 3, 8, 64
	reg := metrics.NewRegistry()
	peers := buildRing(t, m, WithMetrics(reg))
	var wg sync.WaitGroup
	for r := 0; r < m; r++ {
		r := r
		// All collectives in flight concurrently, launched in a different
		// order per rank — the keyed slots must pair the interleaved
		// segments, because peers never agree on local issue order.
		for j := 0; j < ops; j++ {
			op := (j + r*3) % ops // rotated launch order per rank
			wg.Add(1)
			go func() {
				defer wg.Done()
				key := fmt.Sprintf("L%d", op)
				data := make([]float32, n)
				for i := range data {
					data[i] = float32(op + r)
				}
				got, err := peers[r].AllReduce(key, uint32(op), data)
				if err != nil {
					t.Errorf("rank %d op %d: %v", r, op, err)
					return
				}
				// Sum over ranks of (op + r) = m*op + 0+1+..+(m-1).
				want := float32(m*op + m*(m-1)/2)
				for i, v := range got {
					if v != want {
						t.Errorf("rank %d op %d [%d] = %v, want %v", r, op, i, v, want)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if got := reg.Counter("netar_ops_total").Value(); got != uint64(m*ops) {
		t.Fatalf("netar_ops_total = %d, want %d", got, m*ops)
	}
	wantSteps := uint64(m * ops * 2 * (m - 1))
	if got := reg.Counter("netar_steps_total").Value(); got != wantSteps {
		t.Fatalf("netar_steps_total = %d, want %d", got, wantSteps)
	}
}

// TestLiveSchedulerOverRing drives the core scheduler against the real
// ring: each tensor partition becomes one keyed collective, credits gate
// how many are in flight, priority order decides which launches first —
// the paper's scheduler running all-reduce over actual sockets.
func TestLiveSchedulerOverRing(t *testing.T) {
	const m = 3
	peers := buildRing(t, m)
	layerSizes := []int{1024, 4096, 2048} // float32 counts per layer
	results := make([][][]float32, m)

	var wg sync.WaitGroup
	for r := 0; r < m; r++ {
		r := r
		results[r] = make([][]float32, len(layerSizes))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched := core.NewAsync(core.ByteScheduler(4096, 8192))
			var layerWG sync.WaitGroup
			tasks := make([]*core.Task, len(layerSizes))
			for layer, n := range layerSizes {
				layer, n := layer, n
				grad := make([]float32, n)
				for i := range grad {
					grad[i] = float32(r + 1)
				}
				results[r][layer] = make([]float32, n)
				layerWG.Add(1)
				tasks[layer] = &core.Task{
					Tensor: tensor.Tensor{Layer: layer, Name: "w", Bytes: int64(4 * n)},
					StartErr: func(sub tensor.Sub, done func(error)) {
						key := fmt.Sprintf("L%d[%d/%d]", layer, sub.Index, sub.Count)
						lo := sub.Offset / 4
						hi := lo + sub.Bytes/4
						sum, err := peers[r].AllReduce(key, 0, grad[lo:hi])
						if err != nil {
							done(err)
							return
						}
						copy(results[r][layer][lo:hi], sum)
						done(nil)
					},
					OnFinished: func() { layerWG.Done() },
				}
				if err := sched.Enqueue(tasks[layer]); err != nil {
					t.Error(err)
					layerWG.Done()
				}
			}
			for layer := len(tasks) - 1; layer >= 0; layer-- {
				if err := sched.NotifyReady(tasks[layer]); err != nil {
					t.Error(err)
				}
			}
			layerWG.Wait()
			for _, task := range tasks {
				if err := task.Err(); err != nil {
					t.Error(err)
				}
			}
			sched.Shutdown()
		}()
	}
	wg.Wait()

	want := float32(0)
	for r := 0; r < m; r++ {
		want += float32(r + 1)
	}
	for r := 0; r < m; r++ {
		for layer, n := range layerSizes {
			if len(results[r][layer]) != n {
				t.Fatalf("rank %d layer %d incomplete", r, layer)
			}
			for i, v := range results[r][layer] {
				if v != want {
					t.Fatalf("rank %d layer %d[%d] = %v, want %v", r, layer, i, v, want)
				}
			}
		}
	}
}

// TestVectorLengthMismatch: a ring where one peer disagrees about the
// vector length must fail with a diagnostic, not produce silent garbage.
func TestVectorLengthMismatch(t *testing.T) {
	peers := buildRing(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 8
			if r == 1 {
				n = 12
			}
			_, errs[r] = peers[r].AllReduce("g", 0, make([]float32, n))
		}()
	}
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("mismatched vector lengths not detected")
	}
}

// TestStepTimeout: a peer whose partner never shows up must error out
// after its step timeout instead of hanging forever.
func TestStepTimeout(t *testing.T) {
	peers := buildRing(t, 2)
	peers[0].stepTimeout = 50 * time.Millisecond
	start := time.Now()
	_, err := peers[0].AllReduce("g", 0, []float32{1, 2})
	if err == nil {
		t.Fatal("lonely collective did not time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", elapsed)
	}
}

// TestCloseFailsWaiters: Close must wake a collective blocked on a segment
// that will never arrive.
func TestCloseFailsWaiters(t *testing.T) {
	peers := buildRing(t, 2)
	errc := make(chan error, 1)
	go func() {
		_, err := peers[0].AllReduce("g", 0, []float32{1})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	peers[0].Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("blocked collective returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked collective not failed by Close")
	}
	// Idempotent.
	peers[0].Close()
	if _, err := peers[0].AllReduce("g", 1, []float32{1}); err == nil {
		t.Fatal("AllReduce succeeded on closed peer")
	}
}

func TestSizeOneShortCircuit(t *testing.T) {
	p, err := NewPeer(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	in := []float32{1, 2, 3}
	got, err := p.AllReduce("g", 0, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("size-1 ring altered data: %v", got)
		}
	}
	// Must be a copy, not an alias.
	got[0] = 99
	if in[0] == 99 {
		t.Fatal("size-1 result aliases input")
	}
}

// injectConn dials a raw TCP connection to the peer's listen address,
// impersonating its predecessor. acceptLoop treats any inbound connection
// as a segment source, which is exactly the attack surface these tests
// poke: duplicate/stale frames and pending-table floods.
func injectConn(t *testing.T, p *Peer) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// waitCounter polls a registry counter until it reaches want (the reader
// goroutine consumes frames asynchronously).
func waitCounter(t *testing.T, c *metrics.Counter, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", c.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDuplicateSegmentsDropped: a retry echo — the same (key, iter, step)
// frame delivered twice — must be counted and dropped, and the receiver
// must see the first payload exactly once. This is the ring's analogue of
// netps request dedup, for a persistent-connection transport.
func TestDuplicateSegmentsDropped(t *testing.T) {
	reg := metrics.NewRegistry()
	p, err := NewPeer(0, 2, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn := injectConn(t, p)
	frame := seg("k", 1, 0, 0, 1, f32(2, 3))
	for i := 0; i < 2; i++ {
		frame.Seq = uint64(i + 1)
		if err := writeMsg(conn, frame); err != nil {
			t.Fatal(err)
		}
	}
	dups := reg.Counter("netar_dup_segments_total")
	waitCounter(t, dups, 1)
	got := make([]float32, 2)
	if err := p.recvSegment("k", 1, 0, 1, got, nil); err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 3 {
		t.Fatalf("first delivery corrupted by duplicate: %v", got)
	}
	if n := dups.Value(); n != 1 {
		t.Fatalf("dup counter = %d, want 1", n)
	}
}

// TestRecvSegmentWrongLengthInPlace: a segment decodes (gather) or adds
// (reduce-scatter) straight into the chunk of the accumulator it belongs
// to, so one that is longer or shorter than the chunk must be the
// length-mismatch error without touching the neighbouring chunk.
func TestRecvSegmentWrongLengthInPlace(t *testing.T) {
	p, err := NewPeer(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	end, _ := net.Pipe() // never read: deliver only takes its buffer
	defer end.Close()
	step := 0
	for _, scratch := range [][]float32{nil, make([]float32, 2)} {
		for _, payload := range [][]byte{f32(1, 2, 3), f32(1)} {
			acc := []float32{-1, -1, -1, -1}
			if !p.deliver(wire.NewConn(end), seg("k", 1, 1, uint16(step), 0, payload)) {
				t.Fatal("an empty pending table refused a segment")
			}
			err := p.recvSegment("k", 1, uint16(step), 0, acc[:2], scratch)
			if err == nil || !strings.Contains(err.Error(), "vector length mismatch") {
				t.Fatalf("%d-byte segment into a 2-value chunk: err = %v, want a vector length mismatch", len(payload), err)
			}
			if acc[2] != -1 || acc[3] != -1 {
				t.Fatalf("%d-byte segment overran its chunk: %v", len(payload), acc)
			}
			step++
		}
	}
}

// TestPendingTableOverflow: a flood of out-of-order segments beyond
// the pending table's bound must be rejected with an OpErr back to the
// sender and the connection dropped — bounded memory no matter how the
// predecessor misbehaves.
func TestPendingTableOverflow(t *testing.T) {
	reg := metrics.NewRegistry()
	p, err := NewPeer(0, 2, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.maxPending = 4
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn := injectConn(t, p)
	for step := 0; step < 5; step++ {
		if err := writeMsg(conn, seg("flood", 1, uint64(step+1), uint16(step), 0, f32(1))); err != nil {
			t.Fatal(err)
		}
	}
	// The fifth frame overflows the 4-slot table: expect an OpErr frame
	// back, then EOF as the peer drops the connection.
	reply, err := readMsg(conn)
	if err != nil {
		t.Fatalf("no overflow notification: %v", err)
	}
	if Op(reply.Op) != OpErr || !bytes.Contains(reply.Payload, []byte("pending table full")) {
		t.Fatalf("unexpected overflow reply: %+v", reply)
	}
	if _, err := readMsg(conn); err == nil {
		t.Fatal("connection stayed open after overflow")
	}
	if n := reg.Counter("netar_dropped_segments_total").Value(); n != 1 {
		t.Fatalf("drop counter = %d, want 1", n)
	}
	// The parked segments below the bound are still deliverable.
	got := make([]float32, 1)
	if err := p.recvSegment("flood", 1, 0, 0, got, nil); err != nil || got[0] != 1 {
		t.Fatalf("parked segment lost after overflow: %v %v", got, err)
	}
}

func TestNewPeerValidation(t *testing.T) {
	if _, err := NewPeer(0, 0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewPeer(3, 3); err == nil {
		t.Fatal("rank == size accepted")
	}
	if _, err := NewPeer(-1, 3); err == nil {
		t.Fatal("negative rank accepted")
	}
}
