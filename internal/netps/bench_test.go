// Micro-benchmarks of the netps hot paths: message framing (the two-per-RPC
// writeMessage staging buffer, now pooled), batch envelope encoding (now
// sized exactly up front), and the server's pull fast path (the aggregate's
// float32 marshal, now computed once per entry instead of once per pull).
//
// Run with:
//
//	go test -bench 'ProtocolEncode|ServerPull' -benchmem ./internal/netps/
package netps

import (
	"fmt"
	"io"
	"testing"
)

// BenchmarkProtocolEncode frames one push message (256 KB payload) per
// iteration — the client-side cost of putting a scheduled partition on the
// wire. With the pooled header buffer this is 0 allocs/op.
func BenchmarkProtocolEncode(b *testing.B) {
	m := message{
		Op:      OpPush,
		Iter:    7,
		Seq:     1<<32 | 42,
		Key:     "layer12/weight:3",
		Payload: make([]byte, 256<<10),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeMessage(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolEncodeBatch frames a 32-sub-message OpBatch envelope per
// iteration: exact pre-sizing makes this one allocation regardless of the
// sub-message count (it was O(log total) append-doublings).
func BenchmarkProtocolEncodeBatch(b *testing.B) {
	subs := make([]message, 32)
	for i := range subs {
		subs[i] = message{
			Op:      OpPush,
			Iter:    3,
			Seq:     uint64(i + 1),
			Key:     fmt.Sprintf("layer%d/weight:0", i),
			Payload: make([]byte, 8<<10),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeBatch(subs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerPull measures the server's ready-pull fast path: one
// aggregated 64 K-element entry served repeatedly, as happens when many
// workers pull the same completed aggregate. With the per-entry encoded
// cache this is 0 allocs/op; previously every pull re-marshaled the whole
// float32 sum (len(v)*4 bytes per pull).
func BenchmarkServerPull(b *testing.B) {
	srv, err := NewServer(1)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	grad := make([]float32, 64<<10)
	for i := range grad {
		grad[i] = float32(i) * 0.5
	}
	push := message{Op: OpPush, Iter: 1, Seq: 1<<32 | 1, Key: "w", Payload: encode(grad)}
	if resp, _, _ := srv.processPush(push); resp.Op != OpPush {
		b.Fatalf("push rejected: %s", resp.Payload)
	}
	req := message{Op: OpPull, Iter: 1, Key: "w"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, wait, errResp := srv.resolvePull(req)
		if errResp != nil || wait != nil || len(result.payload) != len(grad)*4 {
			b.Fatal("pull not served from the ready fast path")
		}
	}
}

// BenchmarkProtocolEncodeCodec frames a codec-bearing push (fp16, 128 KB
// compressed from 256 KB) per iteration — the envelope's new codec id and
// original-length fields must not reintroduce allocations.
func BenchmarkProtocolEncodeCodec(b *testing.B) {
	m := message{
		Op:      OpPush,
		Codec:   1, // compress.CodecFP16
		Iter:    7,
		Seq:     1<<32 | 42,
		Orig:    256 << 10,
		Key:     "layer12/weight:3",
		Payload: make([]byte, 128<<10),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeMessage(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolEncodeVecCodec is the scatter-gather (response-path)
// variant of BenchmarkProtocolEncodeCodec.
func BenchmarkProtocolEncodeVecCodec(b *testing.B) {
	m := message{
		Op:      OpPull,
		Codec:   2, // compress.CodecInt8
		Iter:    7,
		Seq:     1<<32 | 42,
		Orig:    256 << 10,
		Key:     "layer12/weight:3",
		Payload: make([]byte, 4+64<<10),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeMessageVec(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}
