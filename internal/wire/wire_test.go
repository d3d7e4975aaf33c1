package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"bytescheduler/internal/compress"
)

// frame encodes h and payload as Write puts them on the wire.
func frame(t testing.TB, h Header, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := Write(&b, h, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRoundTrip sends random headers with payload lengths on both sides of
// the prealloc cap through Write→Read and Append→Next.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, maxPrealloc - 1, maxPrealloc, maxPrealloc + 1} {
		h := Header{
			Op: uint8(rng.Uint32()), Codec: uint8(rng.Uint32()), Iter: rng.Uint32(), Seq: rng.Uint64(),
			Step: uint16(rng.Uint32()), Chunk: uint16(rng.Uint32()), Orig: rng.Uint32(),
			Key: strings.Repeat("k", rng.Intn(300)),
		}
		payload := make([]byte, n)
		rng.Read(payload)

		wire := frame(t, h, payload)
		if len(wire) != Size(h, n) {
			t.Fatalf("payload %d: frame is %d bytes, Size says %d", n, len(wire), Size(h, n))
		}
		// Two frames back to back: Read must consume exactly one.
		r := bytes.NewReader(append(slices.Clone(wire), wire...))
		for i := 0; i < 2; i++ {
			gotH, gotP, err := Read(r)
			if err != nil {
				t.Fatalf("payload %d: Read: %v", n, err)
			}
			if gotH != h || !bytes.Equal(gotP, payload) {
				t.Fatalf("payload %d: Read returned %+v (%d bytes), wrote %+v", n, gotH, len(gotP), h)
			}
		}
		if _, _, err := Read(r); err != io.EOF {
			t.Fatalf("payload %d: third Read = %v, want io.EOF", n, err)
		}

		buf, err := Append([]byte("prefix"), h, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[6:], wire) {
			t.Fatalf("payload %d: Append and Write disagree on the bytes", n)
		}
		gotH, gotP, rest, err := Next(append(buf[6:], 0xee))
		if err != nil {
			t.Fatalf("payload %d: Next: %v", n, err)
		}
		if gotH != h || !bytes.Equal(gotP, payload) || !bytes.Equal(rest, []byte{0xee}) {
			t.Fatalf("payload %d: Next returned %+v (%d bytes, rest %x)", n, gotH, len(gotP), rest)
		}
	}
}

// TestRejects covers the limits on both directions: an oversized key or
// payload is refused before anything is written, and a truncated header,
// key or payload, or a length prefix above MaxMessage, is an error on
// read — never a panic, never an allocation of the advertised size.
func TestRejects(t *testing.T) {
	longKey := Header{Key: strings.Repeat("k", maxKey+1)}
	if err := Write(io.Discard, longKey, nil); err == nil {
		t.Fatal("Write accepted a 65 536-byte key")
	}
	if _, err := Append(nil, longKey, nil); err == nil {
		t.Fatal("Append accepted a 65 536-byte key")
	}
	if err := Write(io.Discard, Header{Key: strings.Repeat("k", maxKey)}, nil); err != nil {
		t.Fatalf("Write refused a 65 535-byte key: %v", err)
	}
	huge := make([]byte, MaxMessage+1) // never touched: refused by length
	if err := Write(io.Discard, Header{}, huge); err == nil {
		t.Fatal("Write accepted a payload above MaxMessage")
	}
	if _, err := Append(nil, Header{}, huge); err == nil {
		t.Fatal("Append accepted a payload above MaxMessage")
	}

	wire := frame(t, Header{Op: 1, Key: "key"}, []byte{1, 2, 3, 4})
	for cut := 0; cut < len(wire); cut++ { // every truncation: header, key, length, payload
		_, _, err := Read(bytes.NewReader(wire[:cut]))
		if err == nil {
			t.Fatalf("Read accepted a frame truncated at %d of %d", cut, len(wire))
		}
		if cut == 0 && err != io.EOF {
			t.Fatalf("Read of an empty stream = %v, want the clean io.EOF", err)
		}
		if _, _, _, err := Next(wire[:cut]); err == nil {
			t.Fatalf("Next accepted a frame truncated at %d of %d", cut, len(wire))
		}
	}

	// A length prefix above the limit is refused outright; one just under it
	// backed by nothing runs dry without allocating what it advertises.
	for _, n := range []uint32{MaxMessage + 1, math.MaxUint32, MaxMessage - 1} {
		lying := frame(t, Header{Op: 1, Key: "k"}, nil)
		binary.BigEndian.PutUint32(lying[len(lying)-4:], n)
		var err error
		grew := allocated(func() { _, _, err = Read(bytes.NewReader(lying)) })
		if err == nil {
			t.Fatalf("Read accepted a %d-byte length prefix backed by nothing", n)
		}
		if grew > 4*maxPrealloc { // the cap plus slack, far from the 512 MB advertised
			t.Fatalf("Read allocated %d bytes chasing a %d-byte length prefix", grew, n)
		}
		if _, _, _, err := Next(lying); err == nil {
			t.Fatalf("Next accepted a %d-byte length prefix backed by nothing", n)
		}
	}
}

// TestFloatsRoundTrip checks the payload envelope: identity is codec 0 /
// orig 0 and bit-exact, every codec decodes to the element count it
// encoded, and Orig is validated before anything is decoded.
func TestFloatsRoundTrip(t *testing.T) {
	v := []float32{1.5, -2.25, 0, 3e7, float32(math.Inf(-1))}
	payload, codec, orig := AppendFloats([]byte("x"), compress.Identity(), v)
	if codec != 0 || orig != 0 || len(payload) != 1+4*len(v) {
		t.Fatalf("identity envelope = codec %d orig %d, %d bytes", codec, orig, len(payload))
	}
	got, err := Floats([]float32{9}, Header{}, payload[1:])
	if err != nil || !slices.Equal(got, append([]float32{9}, v...)) {
		t.Fatalf("identity decode = %v (%v), want 9 then %v", got, err, v)
	}
	if _, err := Floats(nil, Header{}, []byte{1, 2, 3}); err == nil {
		t.Fatal("ragged fp32 payload accepted")
	}

	topk, err := compress.TopKCodec(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []compress.Codec{compress.FP16Codec(), compress.Int8Codec(), topk} {
		payload, codec, orig := AppendFloats(nil, c, v)
		if codec != uint8(c.ID()) || orig != uint32(4*len(v)) {
			t.Fatalf("%s envelope = codec %d orig %d", c.Name(), codec, orig)
		}
		h := Header{Codec: codec, Orig: orig}
		got, err := Floats(nil, h, payload)
		if err != nil || len(got) != len(v) {
			t.Fatalf("%s decode = %d values (%v), want %d", c.Name(), len(got), err, len(v))
		}
		for _, bad := range []uint32{0, orig + 1, MaxMessage + 4} {
			h.Orig = bad
			if _, err := Floats(nil, h, payload); err == nil {
				t.Fatalf("%s: original length %d accepted", c.Name(), bad)
			}
		}
	}
	if _, err := Floats(nil, Header{Codec: 200, Orig: 8}, []byte{0, 0}); err == nil {
		t.Fatal("unknown codec id accepted")
	}
	// A sparse payload claiming far more elements than it carries bytes is
	// rejected by its count without the claimed size being allocated first.
	grew := allocated(func() {
		_, err = Floats(nil, Header{Codec: uint8(compress.CodecTopK), Orig: MaxMessage}, []byte{0, 0, 0, 9})
	})
	if err == nil || grew > 1<<20 {
		t.Fatalf("lying top-k payload: err %v, %d bytes allocated", err, grew)
	}
}

// TestBackoffDelay pins the delay curve: monotone in the attempt, positive
// for a positive base, never above a positive Max, and immune to the shift
// overflow at any depth — capped or not.
func TestBackoffDelay(t *testing.T) {
	for _, b := range []Backoff{
		{Base: 5 * time.Millisecond, Max: 500 * time.Millisecond},
		{Base: time.Millisecond, Max: 0},              // uncapped
		{Base: time.Second, Max: time.Millisecond},    // cap below the base
		{Base: 1, Max: math.MaxInt64},                 // cap beyond any shift
		{Base: math.MaxInt64 / 2, Max: math.MaxInt64}, // base near the overflow
	} {
		prev := time.Duration(0)
		for attempt := 0; attempt <= 200; attempt++ {
			d := b.Delay(attempt, 1)
			if d <= 0 {
				t.Fatalf("%+v: delay(%d) = %v, want positive", b, attempt, d)
			}
			if d < prev {
				t.Fatalf("%+v: delay(%d) = %v after %v — not monotone", b, attempt, d, prev)
			}
			if b.Max > 0 && d > b.Max {
				t.Fatalf("%+v: delay(%d) = %v above Max", b, attempt, d)
			}
			prev = d
		}
	}
	b := Backoff{Base: 5 * time.Millisecond, Max: 500 * time.Millisecond}
	for attempt, want := range []time.Duration{5, 10, 20, 40, 80, 160, 320, 500, 500} {
		if d := b.Delay(attempt, 1); d != want*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", attempt, d, want*time.Millisecond)
		}
	}
	if d := b.Delay(3, 0.5); d != 20*time.Millisecond {
		t.Fatalf("jitter 0.5 on 40ms = %v", d)
	}
	if d := (Backoff{Max: time.Second}).Delay(3, 1); d != 0 {
		t.Fatalf("zero base = %v, want backoff disabled", d)
	}
	if d := b.Delay(-1, 1); d != 5*time.Millisecond {
		t.Fatalf("negative attempt = %v, want the base", d)
	}
}
