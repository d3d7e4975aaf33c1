// Micro-benchmarks of the netar bulk path. A codec ring hop encodes one
// segment into the peer's reused staging buffer and frames it, so the pair
// must stay allocation-free (the wire.Conn's own staging) even with the
// codec envelope fields set. A whole loopback collective under the
// identity codec copies no segment: it sends from the vectors, sums each
// reduce-scatter segment with in from its recycled read buffer, and reads
// each all-gather segment straight into out, with slot and collective
// records recycled, so its allocs/op counts only the keys the readers
// decode.
//
// Run with:
//
//	go test -run '^$' -bench 'FrameEncode|AllReduceInto' -benchmem ./internal/netar/
package netar

import (
	"net"
	"sync"
	"testing"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/wire"
)

// discard is a net.Conn that swallows every write: framing alone.
type discard struct{ net.Conn }

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkFrameEncode(b *testing.B) {
	h := wire.Header{Op: uint8(OpData), Iter: 7, Seq: 42, Step: 3, Chunk: 1, Key: "layer12/weight:3"}
	seg := make([]float32, 64<<10)
	c := wire.NewConn(discard{})
	var payload []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, h.Codec, h.Orig = wire.AppendFloats(payload[:0], compress.FP16Codec(), seg)
		if err := c.WriteFrame(h, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllReduceInto runs one 256 KB collective per op on a 2-peer
// loopback ring; allocs/op and B/op cover both peers.
func BenchmarkAllReduceInto(b *testing.B) {
	const floats = 64 << 10
	peers := buildRing(b, 2)
	var ins, outs [2][]float32
	for r := range ins {
		ins[r], outs[r] = make([]float32, floats), make([]float32, floats)
	}
	b.SetBytes(4 * floats)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for r, p := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if err := p.AllReduceInto("bench", uint32(i), ins[r], outs[r]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkControlFrame sends one admission per op from rank 0 to rank 1
// of a 2-peer loopback ring and waits for rank 1's handler to take it: the
// master Core's per-partition cost on the wire, write to handler.
func BenchmarkControlFrame(b *testing.B) {
	peers := buildRing(b, 2)
	got := make(chan struct{}, 1)
	peers[1].SetControl(func(Control, error) { got <- struct{}{} })
	admit := Control{Op: OpAdmit, Iter: 3, Task: 2, Part: 1, Parts: 4, Unit: 256 << 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := peers[0].SendControl(admit); err != nil {
			b.Fatal(err)
		}
		<-got
	}
}
