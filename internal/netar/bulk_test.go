package netar

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/metrics"
)

// TestAllReduceIntoAllocBudget guards the number the ring's bulk path is
// built for: two peers each reduce one 256 KB partition per collective
// into their own output buffer, and after a warm-up one collective
// allocates at most one 128 KB segment's worth of bytes per peer — room
// for free-list misses on top of per-segment bookkeeping. Before the
// output, inbound segments and scratch were reused it allocated about
// five. A byte budget, not an allocation count, so the bound is the same
// under the race detector.
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
	t.Logf("%d KB allocated per 2-peer collective of 256 KB", perOp>>10)
	if budget := uint64(len(peers) * 4 * floats / 2); perOp > budget {
		t.Fatalf("one collective allocates %d KB, budget %d KB", perOp>>10, budget>>10)
	}
}

// TestRingBufferOwnership pins who owns each recycled buffer until when:
// an inbound segment buffer belongs to its slot until recvSegment has
// decoded it (or deliver has dropped it as a duplicate), the reduce
// scratch to one collective, and the output to the caller.
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
			if err := p.recvSegment("k", 1, c.step, c.chunk, got); err != nil {
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
}
