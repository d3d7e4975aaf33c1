// Micro-benchmarks of the netps hot paths: message framing (a wire.Conn's
// own staging, two frames per RPC), a writer's batch of frames flushed in
// one writev, the server's pull fast path (the aggregate's float32
// marshal, computed once per entry instead of once per pull), and one
// whole aggregate's push + pull cycle on the server.
//
// Run with:
//
//	go test -bench 'ProtocolEncode|ServerPull|ServerPushPull' -benchmem ./internal/netps/
package netps

import (
	"fmt"
	"io"
	"net"
	"testing"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/wire"
)

// discard is a net.Conn that swallows every write: framing alone.
type discard struct{ net.Conn }

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkProtocolEncode frames one push message (256 KB payload) per
// iteration — the client-side cost of putting a scheduled partition on the
// wire. With the connection's own header buffer this is 0 allocs/op.
func BenchmarkProtocolEncode(b *testing.B) {
	m := newMessage(OpPush, "layer12/weight:3", 7, 1<<32|42, make([]byte, 256<<10))
	c := wire.NewConn(discard{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteFrame(m.Header, m.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolEncodeBatch stages 32 push frames and flushes them in
// one writev per iteration, as a client's writer drains its queue: the
// connection's own staging makes this 0 allocs/op whatever the count.
func BenchmarkProtocolEncodeBatch(b *testing.B) {
	subs := make([]message, 32)
	for i := range subs {
		subs[i] = newMessage(OpPush, fmt.Sprintf("layer%d/weight:0", i), 3, uint64(i+1), make([]byte, 8<<10))
	}
	c := wire.NewConn(discard{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range subs {
			if err := c.Stage(m.Header, m.Payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerPull measures the server's ready-pull fast path: one
// aggregated 64 K-element entry served repeatedly, as happens when many
// workers pull the same completed aggregate, each pull dropping the
// reference it took as a failed write would. With the per-entry encoded
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
	push := newMessage(OpPush, "w", 1, 1<<32|1, f32(grad...))
	if resp, _, _ := srv.processPush(push, new(pushScratch)); Op(resp.Op) != OpPush {
		b.Fatalf("push rejected: %s", resp.Payload)
	}
	req := newMessage(OpPull, "w", 1, 0, nil)
	sh := srv.shard(req.Key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, parked, errResp := srv.resolvePull(req, nil)
		if errResp != nil || parked || len(result.payload) != len(grad)*4 {
			b.Fatal("pull not served from the ready fast path")
		}
		sh.mu.Lock()
		sh.unref(result)
		sh.mu.Unlock()
	}
}

// BenchmarkServerPushPull measures one whole aggregate's life on the
// server: two workers' 64 K-float pushes, both pulls, and each pull's
// post-write bookkeeping, which drops its reference and reclaims the entry
// into its key's done slot, replacing the iteration before. After a warm-up
// of two aggregates, one retained and one replacing it, allocs/op is the PS
// bulk path's steady-state cost on the server: the aggregate's buffer and
// its sum are recycled, not allocated.
func BenchmarkServerPushPull(b *testing.B) {
	srv, err := NewServer(2)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	grad := make([]float32, 64<<10)
	for i := range grad {
		grad[i] = float32(i) * 0.5
	}
	payload := f32(grad...)
	cycle := func(i int) {
		iter, seq := uint32(i), uint64(2*i+1)
		for w := uint64(1); w <= 2; w++ {
			push := newMessage(OpPush, "w", iter, w<<32|seq, payload)
			if resp, _, _ := srv.processPush(push, new(pushScratch)); Op(resp.Op) != OpPush {
				b.Fatalf("push rejected: %s", resp.Payload)
			}
		}
		for w := uint64(1); w <= 2; w++ {
			pull := newMessage(OpPull, "w", iter, w<<32|(seq+1), nil)
			result, parked, errResp := srv.resolvePull(pull, nil)
			if errResp != nil || parked || len(result.payload) != len(payload) {
				b.Fatal("completed aggregate not ready")
			}
			srv.countPullServed(pull, result)
		}
	}
	const warmup = 2
	for i := 0; i < warmup; i++ {
		cycle(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(warmup + i)
	}
}

// BenchmarkProtocolEncodeCodec frames a codec-bearing push (fp16, 128 KB
// compressed from 256 KB) per iteration — the envelope's codec id and
// original-length fields must not reintroduce allocations.
func BenchmarkProtocolEncodeCodec(b *testing.B) {
	m := newMessage(OpPush, "layer12/weight:3", 7, 1<<32|42, make([]byte, 128<<10))
	m.Codec, m.Orig = uint8(compress.CodecFP16), 256<<10
	c := wire.NewConn(discard{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteFrame(m.Header, m.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolEncodeVecCodec writes a codec-bearing pull response
// (int8, 64 KB) to a loopback TCP connection, where the scatter-gather
// write really is one writev: header and payload leave in one syscall and
// the connection's own staging keeps it at 0 allocs/op.
func BenchmarkProtocolEncodeVecCodec(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c) //nolint:errcheck // drain until the writer hangs up
			c.Close()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	m := newMessage(OpPull, "layer12/weight:3", 7, 1<<32|42, make([]byte, 4+64<<10))
	m.Codec, m.Orig = uint8(compress.CodecInt8), 256<<10
	c := wire.NewConn(conn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteFrame(m.Header, m.Payload); err != nil {
			b.Fatal(err)
		}
	}
}
