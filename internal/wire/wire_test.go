package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"bytescheduler/internal/compress"
)

// sink is a net.Conn whose writes go to w: a Conn's write side alone.
type sink struct {
	net.Conn
	w io.Writer
}

func (s sink) Write(p []byte) (int, error) { return s.w.Write(p) }

// frame encodes h and payload as WriteFrame puts them on the wire.
func frame(t testing.TB, h Header, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := NewConn(sink{w: &b}).WriteFrame(h, payload); err != nil {
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

// dirty fills buf to its capacity with a marker byte, as a buffer the
// previous frame left behind; isDirty reports whether b still holds it.
func dirty(buf []byte) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = 0xa5
	}
}

func isDirty(b []byte) bool { return bytes.Count(b, []byte{0xa5}) == len(b) }

// TestRoundTrip sends random headers with payload lengths on both sides of
// the prealloc cap through WriteFrame→Read, and through Stage→Flush with
// an empty frame between two copies: one flush must put exactly the three
// frames' bytes on the wire, and parse must read them back.
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
		if want := fixedLen + len(h.Key) + 4 + n; len(wire) != want {
			t.Fatalf("payload %d: frame is %d bytes, want %d", n, len(wire), want)
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

		empty := Header{Op: 9, Key: "ack"}
		var flushed bytes.Buffer
		c := NewConn(sink{w: &flushed})
		for _, f := range []struct {
			h Header
			p []byte
		}{{h, payload}, {empty, nil}, {h, payload}} {
			if err := c.Stage(f.h, f.p); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		want := append(append(slices.Clone(wire), frame(t, empty, nil)...), wire...)
		if !bytes.Equal(flushed.Bytes(), want) {
			t.Fatalf("payload %d: one Flush of three staged frames differs from three WriteFrames", n)
		}
		rest := flushed.Bytes()
		for i, wantH := range []Header{h, empty, h} {
			var gotH Header
			var gotP []byte
			var err error
			if gotH, gotP, rest, err = parse(rest); err != nil || gotH != wantH || (wantH == h && !bytes.Equal(gotP, payload)) {
				t.Fatalf("payload %d: flushed frame %d parsed as %+v (%d bytes, %v)", n, i, gotH, len(gotP), err)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("payload %d: %d bytes after the three flushed frames", n, len(rest))
		}
	}
}

// TestWriteMessageVecSteadyStateAllocs holds the writev path every frame
// takes to zero bytes allocated per 64 KB frame in steady state, with or
// without the race detector: the staging belongs to the connection, so
// nothing is ever dropped and rebuilt. net.Buffers.WriteTo consumes its
// receiver down to zero length AND zero capacity, so keeping the consumed
// slice would reallocate the vector every frame; the Conn keeps
// the backing array instead. The count is process-wide, so another
// goroutine's allocation may land in a round of frames; a per-frame one
// lands in every round.
func TestWriteMessageVecSteadyStateAllocs(t *testing.T) {
	h := Header{Op: 2, Codec: 2, Iter: 7, Seq: 1<<32 | 42, Orig: 256 << 10, Key: "layer12/weight:3"}
	payload := make([]byte, 4+64<<10)
	c := NewConn(sink{w: io.Discard})
	write := func() {
		if err := c.WriteFrame(h, payload); err != nil {
			t.Fatal(err)
		}
	}
	write() // the first write sizes the staging
	const frames = 200
	per := uint64(math.MaxUint64)
	for round := 0; round < 5 && per > 0; round++ {
		per = min(per, allocated(func() {
			for i := 0; i < frames; i++ {
				write()
			}
		})/frames)
	}
	if per != 0 {
		t.Fatalf("WriteFrame allocates %d B per 64 KB frame in steady state, budget 0 (staging consumed?)", per)
	}
}

// TestConnReadWhileWriting reads and writes one Conn from two goroutines at
// once — the shape of a ring peer's successor connection, written under the
// peer's send lock while its monitor reads error frames back — and is meant
// for the race detector: the read and write scratch must share nothing.
func TestConnReadWhileWriting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const frames = 200
	go func() { // the far end echoes every frame back
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		far := NewConn(raw)
		defer far.Close()
		for {
			h, payload, err := far.ReadFrame()
			if err != nil || far.WriteFrame(h, payload) != nil {
				return
			}
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(raw)
	defer c.Close()
	read := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			h, payload, err := c.ReadFrame()
			if err == nil && (h.Seq != uint64(i) || h.Key != "k" || len(payload) != i%7*4) {
				err = fmt.Errorf("frame %d echoed as seq %d key %q with %d bytes", i, h.Seq, h.Key, len(payload))
			}
			if err != nil {
				read <- err
				return
			}
		}
		read <- nil
	}()
	for i := 0; i < frames; i++ {
		if err := c.WriteFrame(Header{Op: 1, Seq: uint64(i), Key: "k"}, make([]byte, i%7*4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
}

// TestReadIntoReusesBuffer walks one connection's read buffer through
// frames on both sides of its capacity and of the prealloc cap: a payload
// that fits lands in the buffer, clipped to its own length; one that does
// not is allocated as Read would, and the connection adopts it only up to
// maxPrealloc.
func TestReadIntoReusesBuffer(t *testing.T) {
	var buf []byte
	for _, n := range []int{0, 64, 16, 64, 65, maxPrealloc, maxPrealloc + 1, 16} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(n + i)
		}
		dirty(buf)
		h := Header{Op: 1, Iter: uint32(n), Key: "k"}
		c := &Conn{br: bufio.NewReader(bytes.NewReader(frame(t, h, payload))), rbuf: buf}
		gotH, got, err := c.ReadFrame()
		if err != nil || gotH != h || !bytes.Equal(got, payload) {
			t.Fatalf("payload %d: ReadFrame = %+v, %d bytes, %v", n, gotH, len(got), err)
		}
		fits := n > 0 && n <= cap(buf)
		if aliases := n > 0 && cap(buf) > 0 && &got[0] == &buf[:1][0]; aliases != fits {
			t.Fatalf("payload %d with a %d-byte buffer: in the buffer = %v, want %v", n, cap(buf), aliases, fits)
		}
		if fits && cap(got) != n {
			t.Fatalf("payload %d reaches %d bytes into the buffer", n, cap(got))
		}
		if fits && !isDirty(buf[n:cap(buf)]) {
			t.Fatalf("payload %d wrote past its length", n)
		}
		wantCap := max(cap(buf), n)
		if n > maxPrealloc {
			wantCap = cap(buf)
		}
		if buf = c.Take(nil); cap(buf) != wantCap || len(buf) != 0 {
			t.Fatalf("after payload %d: kept len %d cap %d, want 0 and %d", n, len(buf), cap(buf), wantCap)
		}
	}
}

// TestReadFrameIntoSteadyStateAllocs holds the destination read of a
// repeated frame to 0 allocations: the header scratch and the key table
// belong to the connection and the payload lands in the caller's buffer.
func TestReadFrameIntoSteadyStateAllocs(t *testing.T) {
	const frames = 200
	h := Header{Op: 2, Iter: 7, Seq: 1<<32 | 42, Key: "layer12/weight:3"}
	one := frame(t, h, make([]byte, 4<<10))
	c := NewConn(sink{})
	c.br = bufio.NewReader(bytes.NewReader(bytes.Repeat(one, frames+1)))
	dst := make([]byte, 4<<10)
	pick := func(Header, int) []byte { return dst }
	allocs := testing.AllocsPerRun(frames, func() {
		if got, payload, err := c.ReadFrameInto(pick); err != nil || got != h || &payload[0] != &dst[0] {
			t.Fatalf("ReadFrameInto = %+v, %d bytes, %v; want the frame in dst", got, len(payload), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrameInto allocates %v times per frame, want 0", allocs)
	}
}

// keyedFrames returns one empty-payload frame per key, back to back.
func keyedFrames(t *testing.T, keys []string) []byte {
	var b []byte
	for _, k := range keys {
		b = append(b, frame(t, Header{Op: 1, Key: k}, nil)...)
	}
	return b
}

// readKeys reads n frames from c, failing unless their keys are want's in
// order, cycling.
func readKeys(t *testing.T, c *Conn, want []string, n int) {
	for i := 0; i < n; i++ {
		h, _, err := c.ReadFrame()
		if err != nil || h.Key != want[i%len(want)] {
			t.Fatalf("frame %d: key %q, %v; want %q", i, h.Key, err, want[i%len(want)])
		}
	}
}

// TestReadRepeatedKeyAllocatesNothing reads a connection's keys the way a
// live pass repeats them, sixteen partition keys and the empty key of a
// control frame: after each was read once, a frame allocates nothing.
func TestReadRepeatedKeyAllocatesNothing(t *testing.T) {
	const rounds = 50
	keys := []string{""}
	for i := 0; i < 16; i++ {
		keys = append(keys, fmt.Sprintf("L%02d[%d/4]", i/4, i%4))
	}
	c := NewConn(sink{})
	c.br = bufio.NewReader(bytes.NewReader(bytes.Repeat(keyedFrames(t, keys), rounds+2)))
	readKeys(t, c, keys, len(keys))
	if allocs := testing.AllocsPerRun(rounds, func() { readKeys(t, c, keys, len(keys)) }); allocs != 0 {
		t.Fatalf("a round of %d repeated keys allocates %v times, want 0", len(keys), allocs)
	}
}

// TestKeyTableBounded streams three tables' worth of distinct keys and a
// repeated key too long to keep: the table never holds more than maxKeys
// keys, and once it has filled, each frame allocates at most its key.
func TestKeyTableBounded(t *testing.T) {
	const n = 3 * maxKeys
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	c := NewConn(sink{})
	c.br = bufio.NewReader(bytes.NewReader(keyedFrames(t, keys)))
	for i := 0; i < maxKeys+1; i++ {
		readKeys(t, c, keys[i:i+1], 1)
	}
	next := maxKeys + 1
	allocs := testing.AllocsPerRun(n-next-1, func() {
		readKeys(t, c, keys[next:next+1], 1)
		next++
		if len(c.keys) > maxKeys {
			t.Fatalf("key table holds %d keys, bound %d", len(c.keys), maxKeys)
		}
	})
	if allocs > 1 {
		t.Fatalf("a frame with a new key allocates %v times, want at most 1", allocs)
	}
	long := []string{strings.Repeat("k", maxKeyLen+1)}
	c.br = bufio.NewReader(bytes.NewReader(bytes.Repeat(keyedFrames(t, long), 12)))
	before := len(c.keys)
	if allocs := testing.AllocsPerRun(10, func() { readKeys(t, c, long, 1) }); allocs != 1 || len(c.keys) != before {
		t.Fatalf("a repeated %d-byte key allocates %v times per frame and grows the table %d -> %d, want 1 and no growth", maxKeyLen+1, allocs, before, len(c.keys))
	}
}

// TestRejects covers the limits on both directions: an oversized key or
// payload is refused before anything is written, and a truncated header,
// key or payload, or a length prefix above MaxMessage, is an error on
// read — never a panic, never an allocation of the advertised size.
func TestRejects(t *testing.T) {
	longKey := Header{Key: strings.Repeat("k", maxKey+1)}
	c := NewConn(sink{w: io.Discard})
	if err := c.WriteFrame(longKey, nil); err == nil {
		t.Fatal("WriteFrame accepted a 65 536-byte key")
	}
	if err := c.Stage(longKey, nil); err == nil {
		t.Fatal("Stage accepted a 65 536-byte key")
	}
	if err := c.WriteFrame(Header{Key: strings.Repeat("k", maxKey)}, nil); err != nil {
		t.Fatalf("WriteFrame refused a 65 535-byte key: %v", err)
	}
	huge := make([]byte, MaxMessage+1) // never touched: refused by length
	if err := c.WriteFrame(Header{}, huge); err == nil {
		t.Fatal("WriteFrame accepted a payload above MaxMessage")
	}
	if err := c.Stage(Header{}, huge); err == nil {
		t.Fatal("Stage accepted a payload above MaxMessage")
	}
	// Refused frames staged nothing: the next flush carries one empty frame.
	var b bytes.Buffer
	c = NewConn(sink{w: &b})
	c.Stage(longKey, nil)   //nolint:errcheck // refused above
	c.Stage(Header{}, huge) //nolint:errcheck // refused above
	if err := c.WriteFrame(Header{Op: 1}, nil); err != nil || !bytes.Equal(b.Bytes(), frame(t, Header{Op: 1}, nil)) {
		t.Fatalf("a refused frame was staged: flushed %d bytes (%v)", b.Len(), err)
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
		if cut > 0 && err != io.ErrUnexpectedEOF {
			t.Fatalf("Read of a frame cut at %d = %v, want io.ErrUnexpectedEOF", cut, err)
		}
		if _, _, _, err := parse(wire[:cut]); err == nil {
			t.Fatalf("parse accepted a frame truncated at %d of %d", cut, len(wire))
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
		if _, _, _, err := parse(lying); err == nil {
			t.Fatalf("parse accepted a %d-byte length prefix backed by nothing", n)
		}
	}
}

// TestRawPayloadGoldenFrame pins one whole identity frame: the header's
// integers big-endian, the fp32 payload little-endian (1.0 is 00 00 80 3f).
func TestRawPayloadGoldenFrame(t *testing.T) {
	payload, codec, orig := AppendFloats(nil, compress.Identity(), []float32{1})
	h := Header{Op: 1, Codec: codec, Iter: 0x01020304, Seq: 0x05060708090a0b0c, Step: 0x0d0e, Chunk: 0x0f10, Orig: orig, Key: "k"}
	want := []byte{
		0x01, 0x00, // op, codec
		0x01, 0x02, 0x03, 0x04, // iter
		0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, // seq
		0x0d, 0x0e, 0x0f, 0x10, // step, chunk
		0x00, 0x00, 0x00, 0x00, // orig
		0x00, 0x01, 'k', // keyLen, key
		0x00, 0x00, 0x00, 0x04, // payloadLen
		0x00, 0x00, 0x80, 0x3f, // 1.0f
	}
	got := frame(t, h, payload)
	if !bytes.Equal(got, want) {
		t.Fatalf("frame = % x\nwant    % x", got, want)
	}
	rh, rp, err := Read(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := Floats(nil, rh, rp); err != nil || !slices.Equal(v, []float32{1}) || rh != h {
		t.Fatalf("read back %+v %v (%v), want %+v [1]", rh, v, err, h)
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
