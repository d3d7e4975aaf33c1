// Micro-benchmark of the netar per-hop send path. Every ring hop encodes
// one segment into the peer's reused staging buffer and frames it, so the
// pair must stay allocation-free (wire.Write's pooled staging) even with
// the codec envelope fields set.
//
// Run with:
//
//	go test -bench FrameEncode -benchmem ./internal/netar/
package netar

import (
	"io"
	"testing"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/wire"
)

func BenchmarkFrameEncode(b *testing.B) {
	h := wire.Header{Op: uint8(OpData), Iter: 7, Seq: 42, Step: 3, Chunk: 1, Key: "layer12/weight:3"}
	seg := make([]float32, 64<<10)
	var payload []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, h.Codec, h.Orig = wire.AppendFloats(payload[:0], compress.FP16Codec(), seg)
		if err := wire.Write(io.Discard, h, payload); err != nil {
			b.Fatal(err)
		}
	}
}
