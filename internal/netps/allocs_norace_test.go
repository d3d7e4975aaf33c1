// Exact allocation counts are meaningless under the race detector (its
// instrumentation and sync.Pool behavior add allocations), so this file is
// excluded from race builds — the same split the determinism suite uses.

//go:build !race

package netps

import (
	"io"
	"testing"

	"bytescheduler/internal/wire"
)

// TestWriteMessageVecSteadyStateAllocs pins the writev path every frame
// now takes at zero steady-state allocations. net.Buffers.WriteTo consumes
// its receiver down to zero length AND zero capacity, so pooling the
// consumed slice recycled nothing and every payload-bearing frame
// reallocated the two-element array; wire.Write pools the backing array
// instead. The first write may populate pools, so one warm-up write
// precedes the measurement.
func TestWriteMessageVecSteadyStateAllocs(t *testing.T) {
	h := wire.Header{Op: uint8(OpPull), Codec: 2, Iter: 7, Seq: 1<<32 | 42, Orig: 256 << 10, Key: "layer12/weight:3"}
	payload := make([]byte, 4+64<<10)
	if err := wire.Write(io.Discard, h, payload); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := wire.Write(io.Discard, h, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("wire.Write allocates %.1f/op in steady state, want 0 (pooled staging consumed)", n)
	}
}
