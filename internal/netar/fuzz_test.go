// Fuzz target for netar's half of the wire protocol. Framing itself —
// arbitrary bytes never panic the reader, never over-allocate, and an
// accepted frame re-encodes to the same bytes — is wire.FuzzRead's
// contract. Here the contract is what a Peer does with a frame that
// parsed: it parks in the (key, iter, step) slot its header names, the
// waiting step finds it there, a segment whose envelope does not decode
// (adversarial codec id, original length, payload framing) surfaces as an
// error — never a panic — and the slot is reclaimed either way.
//
// Run continuously with:
//
//	go test ./internal/netar/ -fuzz FuzzDecodeFrame -fuzztime 30s
//
// CI runs a short smoke (make fuzz); the committed corpus under
// testdata/fuzz keeps interesting seeds regression-tested by plain
// `go test`.
package netar

import (
	"bytes"
	"math"
	"net"
	"slices"
	"testing"

	"bytescheduler/internal/wire"
)

// frame encodes m as it goes on the wire, for seeding.
func frame(t testing.TB, m message) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeMsg(&b, m); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// codecSeeds are codec-bearing segments: fp16, int8, and top-k payloads
// under their envelope codec ids and original-length fields.
func codecSeeds() []message {
	seed := func(codec uint8, seq uint64, step, chunk uint16, orig uint32, key string, payload []byte) message {
		m := seg(key, 2, seq, step, chunk, payload)
		m.Codec, m.Orig = codec, orig
		return m
	}
	return []message{
		seed(1, 8, 3, 1, 8, "L05[1/4]", []byte{0x3c, 0x00, 0xbc, 0x00}),
		seed(2, 9, 4, 2, 12, "L05[2/4]", []byte{0x3c, 0x81, 0x02, 0x04, 0x7f, 0x81, 0x00}),
		seed(3, 10, 5, 3, 16, "L05[3/4]", []byte{0, 0, 0, 1, 0, 0, 0, 0, 0x3f, 0x80, 0, 0}),
	}
}

// xiterSeeds are cross-iteration segments: with the streaming coordinated
// release, iteration i and i+1 segments for the same key are in flight at
// once; the iter field is the only discriminator the pending table sees.
func xiterSeeds() []message {
	return []message{
		seg("L05[1/4]", 3, 11, 1, 0, f32(1, 2)),
		seg("L05[1/4]", 4, 12, 1, 0, f32(3, 4)),
	}
}

// sameBits compares fp32 values by bit pattern, so NaNs compare equal.
func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame(f, seg("L05[1/4]", 2, 7, 3, 1, f32(1, -2, 3.5))))
	f.Add(frame(f, message{Header: wire.Header{Op: uint8(OpErr)}, Payload: []byte("pending table full")}))
	f.Add(frame(f, seg("", 0, 0, 0, 0, nil)))
	for _, m := range append(codecSeeds(), xiterSeeds()...) {
		f.Add(frame(f, m))
	}
	// A ragged fp32 payload, and a top-k one too short for its own count.
	f.Add(frame(f, seg("x", 0, 0, 0, 0, []byte{1, 2, 3})))
	short := codecSeeds()[2]
	short.Payload = []byte{0, 0, 1}
	f.Add(frame(f, short))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMsg(bytes.NewReader(data))
		if err != nil {
			return // rejected by the frame reader: wire.FuzzRead's territory
		}
		want, decodeErr := wire.Floats(nil, m.Header, m.Payload)
		// Received as a gather step decodes it; as a reduce-scatter step
		// adds it into the accumulator (a raw segment straight from its
		// read buffer).
		for _, reduce := range []bool{false, true} {
			p, err := NewPeer(0, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			end, _ := net.Pipe() // never read: deliver only takes its buffer
			defer end.Close()
			if !p.deliver(wire.NewConn(end), m) {
				t.Fatal("an empty pending table refused a segment")
			}
			got, sum, scratch := make([]float32, len(want)), slices.Clone(want), []float32(nil)
			if reduce {
				for i := range got {
					got[i] = 0.5
					sum[i] += 0.5
				}
				scratch = make([]float32, len(want))
			}
			err = p.recvSegment(m.Key, m.Iter, m.Step, m.Chunk, got, scratch)
			if (err == nil) != (decodeErr == nil) {
				t.Fatalf("recvSegment (reduce %v) err = %v, envelope decode err = %v", reduce, err, decodeErr)
			}
			if err == nil && !slices.EqualFunc(got, sum, sameBits) {
				t.Fatalf("received %v (reduce %v), want %v", got, reduce, sum)
			}
			if len(p.slots) != 0 {
				t.Fatalf("%d slots left after the step consumed its segment", len(p.slots))
			}
		}
	})
}
