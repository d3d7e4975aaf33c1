package netps

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/tensor"
	"bytescheduler/internal/wire"
)

func TestProtocolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := newMessage(OpPull, "L03/weight[2/4]", 7, 0, []byte{1, 2, 3, 4})
	if err := writeMsg(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Iter != in.Iter || out.Key != in.Key || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestProtocolEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMsg(&buf, newMessage(OpPush, "k", 0, 0, nil)); err != nil {
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

// TestEncodeDecode checks the push envelope the client builds decodes back
// through wire.Floats, and that the identity codec stays codec 0 / orig 0.
func TestEncodeDecode(t *testing.T) {
	v := []float32{1.5, -2.25, 0, 1024} // exact in fp16 too
	for _, cd := range []compress.Codec{compress.Identity(), compress.FP16Codec()} {
		c := NewClient("127.0.0.1:1", WithCodec(cd))
		m := c.pushCall("k", 1, v).req
		if cd.IsIdentity() && (m.Codec != 0 || m.Orig != 0 || len(m.Payload) != 4*len(v)) {
			t.Fatalf("identity envelope = codec %d orig %d, %d bytes", m.Codec, m.Orig, len(m.Payload))
		}
		got, err := wire.Floats(nil, m.Header, m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, v) {
			t.Fatalf("%s: decoded %v, want %v", cd.Name(), got, v)
		}
	}
	if _, err := wire.Floats(nil, wire.Header{}, []byte{1, 2, 3}); err == nil {
		t.Fatal("ragged payload accepted")
	}
}

// writeMsg and readMsg put one frame on a raw test socket; f32 is a raw
// fp32 payload.
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

func startServer(t *testing.T, workers int, opts ...ServerOption) (*Server, string) {
	t.Helper()
	srv, err := NewServer(workers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// waitFor polls cond until it holds, failing the test with what after d.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
	}
}

// waitOutstanding waits for srv.Outstanding() to reach want. An entry is
// reclaimed after its last pull's response is written (countPullServed), so
// a client that has just read that response can be a moment ahead of the
// server's bookkeeping; asserting Outstanding directly after a Pull over a
// connection is a race by design.
func waitOutstanding(t *testing.T, srv *Server, want int) {
	t.Helper()
	waitFor(t, 2*time.Second, fmt.Sprintf("Outstanding() == %d", want), func() bool {
		return srv.Outstanding() == want
	})
}

func TestPushPullAggregates(t *testing.T) {
	srv, addr := startServer(t, 2)
	c0, c1 := NewClient(addr), NewClient(addr)
	defer c0.Close()
	defer c1.Close()

	if err := c0.Push("w", 0, []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Push("w", 0, []float32{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{c0, c1} {
		got, err := c.Pull("w", 0)
		if err != nil {
			t.Fatal(err)
		}
		want := []float32{11, 22, 33}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("aggregated = %v, want %v", got, want)
			}
		}
	}
	waitOutstanding(t, srv, 0)
}

func TestPullBlocksUntilAllPush(t *testing.T) {
	_, addr := startServer(t, 2)
	c0, c1 := NewClient(addr), NewClient(addr)
	defer c0.Close()
	defer c1.Close()

	if err := c0.Push("w", 0, []float32{5}); err != nil {
		t.Fatal(err)
	}
	done := make(chan []float32, 1)
	go func() {
		v, err := c0.Pull("w", 0)
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	select {
	case <-done:
		t.Fatal("pull returned before all workers pushed")
	case <-time.After(50 * time.Millisecond):
	}
	if err := c1.Push("w", 0, []float32{7}); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v[0] != 12 {
			t.Fatalf("sum = %v, want 12", v[0])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull never unblocked")
	}
	// Drain worker 1's pull so the entry is reclaimed.
	if _, err := c1.Pull("w", 0); err != nil {
		t.Fatal(err)
	}
}

func TestIterationsIsolated(t *testing.T) {
	_, addr := startServer(t, 1)
	c := NewClient(addr)
	defer c.Close()
	for iter := uint32(0); iter < 3; iter++ {
		if err := c.Push("w", iter, []float32{float32(iter)}); err != nil {
			t.Fatal(err)
		}
		got, err := c.Pull("w", iter)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float32(iter) {
			t.Fatalf("iter %d value %v", iter, got[0])
		}
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(0); err == nil {
		t.Fatal("zero workers accepted")
	}
}

// TestLiveSchedulerOverTCP drives the public live scheduler against the
// real server: two workers, three layers, priority scheduling with real
// sockets, verifying both the aggregation results and completion.
func TestLiveSchedulerOverTCP(t *testing.T) {
	const workers = 2
	srv, addr := startServer(t, workers)

	layerSizes := []int{1024, 4096, 2048} // float32 counts per layer
	results := make([][][]float32, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		results[w] = make([][]float32, len(layerSizes))
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := NewClient(addr)
			defer client.Close()
			sched := core.NewAsync(core.ByteScheduler(4096, 8192))

			var layerWG sync.WaitGroup
			tasks := make([]*core.Task, len(layerSizes))
			for layer, n := range layerSizes {
				layer, n := layer, n
				grad := make([]float32, n)
				for i := range grad {
					grad[i] = float32(w + 1)
				}
				// Allocate up front: partitions of one tensor may run
				// concurrently, so a lazy nil-check inside Start would race.
				results[w][layer] = make([]float32, n)
				layerWG.Add(1)
				tasks[layer] = &core.Task{
					Tensor: tensor.Tensor{Layer: layer, Name: "w", Bytes: int64(4 * n)},
					Start: func(sub tensor.Sub, done func()) {
						key := fmt.Sprintf("L%d[%d/%d]", layer, sub.Index, sub.Count)
						lo := sub.Offset / 4
						hi := lo + sub.Bytes/4
						if err := client.Push(key, 0, grad[lo:hi]); err != nil {
							t.Error(err)
							done()
							return
						}
						sum, err := client.Pull(key, 0)
						if err != nil {
							t.Error(err)
							done()
							return
						}
						copy(results[w][layer][lo:hi], sum)
						done()
					},
					OnFinished: func() { layerWG.Done() },
				}
				if err := sched.Enqueue(tasks[layer]); err != nil {
					t.Error(err)
					layerWG.Done()
				}
			}
			// Backward order, like BP.
			for layer := len(tasks) - 1; layer >= 0; layer-- {
				if err := sched.NotifyReady(tasks[layer]); err != nil {
					t.Error(err)
				}
			}
			layerWG.Wait()
			sched.Shutdown()
		}()
	}
	wg.Wait()

	// Every worker must have received the cross-worker sum 1+2=3.
	for w := 0; w < workers; w++ {
		for layer, n := range layerSizes {
			if len(results[w][layer]) != n {
				t.Fatalf("worker %d layer %d incomplete", w, layer)
			}
			for i, v := range results[w][layer] {
				if v != 3 {
					t.Fatalf("worker %d layer %d[%d] = %v, want 3", w, layer, i, v)
				}
			}
		}
	}
	waitOutstanding(t, srv, 0)
}
