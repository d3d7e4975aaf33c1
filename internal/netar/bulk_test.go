package netar

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/wire"
)

// TestAllReduceIntoAllocBudget guards the number the ring's bulk path is
// built for: two peers each reduce one 256 KB partition per collective
// into their own output buffer, and after a warm-up one collective
// allocates at most 1 KB for both peers. It measured 24-30 B (the keys the
// reader decodes), 77-80 B under the race detector; while each step
// allocated a timer and each slot a channel it read 4.5 KB (1.9-3.2 KB
// under the detector), and before the output, inbound segments and scratch
// were reused about five 128 KB segments. A byte budget, not an allocation
// count, so the bound is the same under the race detector.
func TestAllReduceIntoAllocBudget(t *testing.T) {
	const (
		floats = 64 << 10 // 256 KB of fp32
		warmup = 10
		iters  = 100
	)
	peers := buildRing(t, 2)
	var ins, outs [2][]float32
	for r := range ins {
		ins[r], outs[r] = make([]float32, floats), make([]float32, floats)
	}
	run := func(from, to uint32) {
		var wg sync.WaitGroup
		for r, p := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := from; iter < to; iter++ {
					in, out := ins[r], outs[r]
					for i := range in {
						in[i] = float32(int(iter)%5 + r + i%3)
					}
					if err := p.AllReduceInto("part", iter, in, out); err != nil {
						t.Errorf("rank %d collective %d: %v", r, iter, err)
						return
					}
					for i, v := range out {
						if want := float32(2*(int(iter)%5) + 1 + 2*(i%3)); v != want {
							t.Errorf("rank %d collective %d: sum[%d] = %v, want %v", r, iter, i, v, want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	run(0, warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(warmup, warmup+iters)
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / iters
	t.Logf("%d B allocated per 2-peer collective of 256 KB", perOp)
	if budget := uint64(1 << 10); perOp > budget {
		t.Fatalf("one collective allocates %d B, budget %d B", perOp, budget)
	}
}

// TestRingBufferOwnership pins who owns each recycled buffer until when:
// an inbound segment buffer belongs to its slot until recvSegment has
// decoded it (or deliver has dropped it as a duplicate), the reduce
// scratch to one collective, and the output to the caller — lent to the
// reader for a gather segment read straight into it, until that read ends.
func TestRingBufferOwnership(t *testing.T) {
	// (i) Results never share memory with a recycled buffer: keyed
	// collectives of different lengths run concurrently on a 3-peer ring,
	// and every result is re-checked after later rounds have cycled
	// segment buffers and scratch through the free lists again.
	t.Run("results survive later collectives", func(t *testing.T) {
		const m, keys, rounds = 3, 4, 5
		peers := buildRing(t, m)
		n := func(k int) int { return 1000 + 37*k }
		want := func(k, round, i int) float32 { return float32(6*(k+1) + 3*round + 3*(i%5)) }
		results := make([][][][]float32, m) // [rank][round][key]
		for r := range results {
			results[r] = make([][][]float32, rounds)
		}
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			for r, p := range peers {
				results[r][round] = make([][]float32, keys)
				for k := 0; k < keys; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						in := make([]float32, n(k))
						for i := range in {
							in[i] = float32((r+1)*(k+1) + round + i%5)
						}
						key := fmt.Sprintf("L%d", k)
						var out []float32
						var err error
						if k%2 == 0 {
							out, err = p.AllReduce(key, uint32(round), in)
						} else {
							out = make([]float32, len(in))
							err = p.AllReduceInto(key, uint32(round), in, out)
						}
						if err != nil {
							t.Errorf("rank %d %s#%d: %v", r, key, round, err)
						}
						results[r][round][k] = out
					}()
				}
			}
			wg.Wait()
		}
		for r := range results {
			for round, outs := range results[r] {
				for k, out := range outs {
					for i, v := range out {
						if v != want(k, round, i) {
							t.Fatalf("rank %d L%d#%d [%d] = %v after later collectives, want %v",
								r, k, round, i, v, want(k, round, i))
						}
					}
				}
			}
		}
	})

	// (ii) A duplicate's buffer goes back to the free list, and the next
	// segment is read into it; the first delivery's payload, still parked
	// in its slot, must be untouched.
	t.Run("duplicate recycle spares the parked segment", func(t *testing.T) {
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
		for _, m := range []message{
			seg("k", 1, 1, 0, 1, f32(2, 3)),
			seg("k", 1, 2, 0, 1, f32(7, 8)), // duplicate of step 0, other values
			seg("k", 1, 3, 1, 0, f32(4, 5)), // another slot
		} {
			if err := writeMsg(conn, m); err != nil {
				t.Fatal(err)
			}
		}
		waitCounter(t, reg.Counter("netar_dup_segments_total"), 1)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			p.mu.Lock()
			parked := len(p.slots)
			p.mu.Unlock()
			if parked == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d slots parked, want 2", parked)
			}
		}
		for _, c := range []struct {
			step, chunk uint16
			want        [2]float32
		}{{0, 1, [2]float32{2, 3}}, {1, 0, [2]float32{4, 5}}} {
			got := make([]float32, 2)
			if err := p.recvSegment(&collective{key: "k", iter: 1}, c.step, c.chunk, got, nil); err != nil {
				t.Fatal(err)
			}
			if got[0] != c.want[0] || got[1] != c.want[1] {
				t.Fatalf("step %d received %v, want %v", c.step, got, c.want)
			}
		}
	})

	// (iii) in and out may be the same buffer.
	t.Run("aliased in and out", func(t *testing.T) {
		const m, n = 3, 10
		peers := buildRing(t, m)
		vecs := make([][]float32, m)
		var wg sync.WaitGroup
		for r, p := range peers {
			vecs[r] = make([]float32, n)
			for i := range vecs[r] {
				vecs[r][i] = float32((r + 1) * (i + 1))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := p.AllReduceInto("g", 0, vecs[r], vecs[r]); err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}()
		}
		wg.Wait()
		for r, v := range vecs {
			for i, got := range v {
				if want := float32(6 * (i + 1)); got != want {
					t.Fatalf("rank %d [%d] = %v, want %v", r, i, got, want)
				}
			}
		}
	})

	// (iv) An output of the wrong length is the caller's error, reported
	// locally before anything reaches the wire.
	t.Run("output length mismatch", func(t *testing.T) {
		p, err := NewPeer(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for _, outLen := range []int{3, 5} {
			if err := p.AllReduceInto("g", 0, make([]float32, 4), make([]float32, outLen)); err == nil {
				t.Fatalf("%d-value output for a 4-value input accepted", outLen)
			}
		}
	})

	// (v) A gather segment being read into out is bounded by the step
	// timeout: the test plays rank 0's neighbours, sends the header and half
	// the payload of its gather segment and stalls for four step timeouts.
	// The read fails at its deadline, so the collective returns an error
	// within twice the step timeout plus a margin of two more — before the
	// rest is sent — and the rest, sent after, never reaches out.
	t.Run("a gather read stalled past the step timeout ends first", func(t *testing.T) {
		const n, stall = 4096, 300 * time.Millisecond
		p, pred := fakeNeighbours(t)
		p.stepTimeout = stall / 4
		out := make([]float32, n)
		done := make(chan error, 1)
		go func() { done <- p.AllReduceInto("k", 0, constVec(n, 1), out) }()
		half := startGather(t, p, pred, n, 3)
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("a collective whose gather segment stalled past the step timeout succeeded")
			}
		case <-time.After(stall): // twice the step timeout, plus a 150 ms margin
			t.Fatalf("the collective was still waiting on its gather read %v after it stalled", stall)
		}
		returned := slices.Clone(out)
		pred.Write(half) //nolint:errcheck // the reader may have dropped the connection
		time.Sleep(20 * time.Millisecond)
		if !slices.EqualFunc(out, returned, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
			t.Fatal("out changed after the collective returned")
		}
	})

	// (vi) A gather segment cut off mid-payload fails the collective that
	// registered its destination; the step timeout is far off, so only the
	// reader's outcome can end it.
	t.Run("a gather read cut off mid-payload fails the collective", func(t *testing.T) {
		const n = 4096
		p, pred := fakeNeighbours(t)
		done := make(chan error, 1)
		go func() { done <- p.AllReduceInto("k", 0, constVec(n, 1), make([]float32, n)) }()
		startGather(t, p, pred, n, 3)
		pred.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("a collective whose gather segment was cut off succeeded")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a collective whose gather segment was cut off hung")
		}
	})

	// (vii) A segment that comes before its destination is registered takes
	// a recycled buffer and still sums right. Rank 0 of a 3-peer ring sleeps
	// after every write, so a gather segment overtakes the registration that
	// follows its reduce-scatter send; values change every iteration.
	t.Run("segments that come before their destination sum right", func(t *testing.T) {
		const m, n, keys, iters = 3, 3 * 4096, 2, 4
		early := 0
		for _, cd := range []compress.Codec{compress.Identity(), compress.FP16Codec()} {
			for _, aliased := range []bool{false, true} {
				reads := new(readLog)
				peers := buildWrappedRing(t, m, func(r int, c net.Conn) net.Conn {
					if r != 0 {
						return c
					}
					return spyConn{Conn: c, lag: 4 * time.Millisecond, reads: reads}
				}, WithCodec(cd))
				rank0 := make([][]float32, 0, keys*iters)
				var mu sync.Mutex
				var wg sync.WaitGroup
				for r, p := range peers {
					for k := 0; k < keys; k++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for iter := 0; iter < iters; iter++ {
								in := make([]float32, n)
								for i := range in {
									in[i] = float32((r+1)*(iter+1) + k + i%7)
								}
								out := in
								if !aliased {
									out = make([]float32, n)
								}
								if err := p.AllReduceInto(fmt.Sprintf("L%d", k), uint32(iter), in, out); err != nil {
									t.Errorf("%s aliased=%v rank %d L%d#%d: %v", cd.Name(), aliased, r, k, iter, err)
									return
								}
								for i, v := range out {
									if want := float32(6*(iter+1) + 3*k + 3*(i%7)); v != want {
										t.Errorf("%s aliased=%v rank %d L%d#%d [%d] = %v, want %v", cd.Name(), aliased, r, k, iter, i, v, want)
										return
									}
								}
								if r == 0 {
									mu.Lock()
									rank0 = append(rank0, out)
									mu.Unlock()
								}
							}
						}()
					}
				}
				wg.Wait()
				if cd.IsIdentity() {
					// Rank 0's gather step 1 brings chunk 2; read anywhere
					// but out, it came before its destination was registered.
					for _, out := range rank0 {
						if reads.hits(chunk(out, m, 2)) == 0 {
							early++
						}
					}
				}
			}
		}
		if early == 0 {
			t.Fatal("no gather segment came before its destination was registered: the early path went unexercised")
		}
		t.Logf("%d raw gather segments came before their destination was registered", early)
	})

	// (viii) On a 2-peer ring every gather segment finds its destination
	// registered — it is registered when the collective starts, before the
	// segment can exist — so after warm-up none takes a recycled buffer: a
	// read straight into out shows at each peer's connection.
	t.Run("gather segments are read straight into out", func(t *testing.T) {
		const floats, warmup, iters = 16 << 10, 5, 40
		reads := []*readLog{new(readLog), new(readLog)}
		peers := buildWrappedRing(t, 2, func(r int, c net.Conn) net.Conn { return spyConn{Conn: c, reads: reads[r]} })
		var wg sync.WaitGroup
		for r, p := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				in, out := make([]float32, floats), make([]float32, floats)
				for iter := 0; iter < warmup+iters; iter++ {
					for i := range in {
						in[i] = float32(iter + r + i%3)
					}
					if err := p.AllReduceInto("g", uint32(iter), in, out); err != nil {
						t.Errorf("rank %d collective %d: %v", r, iter, err)
						return
					}
					for i, v := range out {
						if want := float32(2*iter + 1 + 2*(i%3)); v != want {
							t.Errorf("rank %d collective %d: sum[%d] = %v, want %v", r, iter, i, v, want)
							return
						}
					}
					// Rank r gathers chunk r; the next collective's gather
					// segment cannot come before this rank's next send.
					if hits := reads[r].hits(chunk(out, 2, r)); iter >= warmup && hits == 0 {
						t.Errorf("rank %d collective %d: its gather segment took a recycled buffer", r, iter)
					}
					reads[r].reset()
				}
			}()
		}
		wg.Wait()
	})
}

// constVec returns n copies of v.
func constVec(n int, v float32) []float32 {
	vec := make([]float32, n)
	for i := range vec {
		vec[i] = v
	}
	return vec
}

// checkConst fails t unless got is n copies of want.
func checkConst(t *testing.T, what string, got []float32, n int, want float32) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s has %d values, want %d", what, len(got), n)
	}
	for i, v := range got {
		if v != want {
			t.Fatalf("%s[%d] = %v, want %v", what, i, v, want)
		}
	}
}

// fakeNeighbours returns rank 0 of a 2-peer ring whose neighbours the test
// plays: its successor drains whatever it sends, and pred is a connection
// into its listener, its predecessor.
func fakeNeighbours(t *testing.T) (p *Peer, pred net.Conn) {
	t.Helper()
	p, err := NewPeer(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c) //nolint:errcheck // until the peer hangs up
	}()
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := p.Dial(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	return p, injectConn(t, p)
}

// startGather plays the predecessor of p (rank 0 of 2, running a collective
// of n values on key "k", iteration 0 whose own input is 1s): it sends the
// reduce-scatter segment (chunk 1, 2s, so chunk 1 sums to 3), waits until
// p has registered out's chunk 0 for its gather segment, and sends that
// segment (sum values) but for the second half of its payload, which it
// returns.
func startGather(t *testing.T, p *Peer, pred net.Conn, n int, sum float32) (rest []byte) {
	t.Helper()
	if err := writeMsg(pred, seg("k", 0, 1, 0, 1, f32(constVec(n/2, 2)...))); err != nil {
		t.Fatal(err)
	}
	k := slotKey{key: "k", iter: 0, step: 1}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		s := p.slots[k]
		registered := s != nil && s.dst != nil
		p.mu.Unlock()
		if registered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the gather destination was never registered")
		}
	}
	var b bytes.Buffer
	if err := writeMsg(&b, seg("k", 0, 2, 1, 0, f32(constVec(n/2, sum)...))); err != nil {
		t.Fatal(err)
	}
	half := b.Len() - n // the header and half of the 2n-byte payload
	if _, err := pred.Write(b.Bytes()[:half]); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()[half:]
}

// buildWrappedRing is buildRing with each rank's connections, inbound and
// outbound, passed through wrap first.
func buildWrappedRing(t testing.TB, m int, wrap func(rank int, c net.Conn) net.Conn, opts ...Option) []*Peer {
	t.Helper()
	peers := make([]*Peer, m)
	for r := range peers {
		p, err := NewPeer(r, m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p.ln = wrapListener{Listener: ln, wrap: func(c net.Conn) net.Conn { return wrap(r, c) }}
		p.wg.Add(1)
		go p.acceptLoop(p.ln)
		peers[r] = p
		t.Cleanup(p.Close)
	}
	for r, p := range peers {
		conn, err := net.Dial("tcp", peers[(r+1)%m].Addr())
		if err != nil {
			t.Fatal(err)
		}
		p.succ = wire.NewConn(wrap(r, conn))
		p.wg.Add(1)
		go p.monitorLoop(p.succ)
	}
	return peers
}

// wrapListener passes every connection it accepts through wrap.
type wrapListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l wrapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// spyConn logs where each of its reads lands in reads (nil: nowhere) — a
// payload read straight into out shows as a read inside out — and sleeps
// lag after every write.
type spyConn struct {
	net.Conn
	lag   time.Duration
	reads *readLog
}

func (c spyConn) Read(b []byte) (int, error) {
	if c.reads != nil && len(b) > 0 {
		c.reads.mu.Lock()
		c.reads.addrs = append(c.reads.addrs, reflect.ValueOf(b).Pointer())
		c.reads.mu.Unlock()
	}
	return c.Conn.Read(b)
}

func (c spyConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	time.Sleep(c.lag)
	return n, err
}

// readLog is the address of every read's first byte, in order.
type readLog struct {
	mu    sync.Mutex
	addrs []uintptr
}

// hits counts the logged reads that landed inside v.
func (l *readLog) hits(v []float32) (n int) {
	lo := reflect.ValueOf(v).Pointer()
	hi := lo + uintptr(4*len(v))
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, a := range l.addrs {
		if lo <= a && a < hi {
			n++
		}
	}
	return n
}

// reset forgets every logged read.
func (l *readLog) reset() {
	l.mu.Lock()
	l.addrs = l.addrs[:0]
	l.mu.Unlock()
}
