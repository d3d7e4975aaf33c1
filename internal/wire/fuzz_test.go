// Fuzz target for the one frame reader both live transports use. The
// contract under fuzz: arbitrary bytes may produce an error but never a
// panic; the reader never allocates a payload the input did not actually
// carry (the capped-preallocation property); an accepted frame re-encodes
// to exactly the bytes it was read from, and parse — the layout spelled
// out independently over a byte slice — agrees with Read; a Conn, reading
// the input's consecutive frames through its one reused, dirty buffer,
// agrees with parse frame by
// frame, never lets a payload reach past its own length into the buffer,
// and allocates no more than Read may on a length prefix backed by
// nothing; ReadFrameInto, offered in turn a destination of the payload's
// length, a longer one, one a byte short and none, reads the same frames
// byte for byte, lands a payload only in a destination it fits, never
// writes past the destination's length nor into a refused one, and goes
// on parsing after a refusal; and the payload envelope decoder rejects
// adversarial codec ids, original lengths and payload framing without
// panicking, while raw fp32 payloads re-encode bit for bit (NaNs included).
//
// Run continuously with:
//
//	go test ./internal/wire/ -fuzz FuzzRead -fuzztime 30s
//
// CI runs a short smoke (make fuzz); the committed corpus under
// testdata/fuzz keeps the interesting seeds regression-tested by plain
// `go test`.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"bytescheduler/internal/compress"
)

// seed is one corpus frame.
type seed struct {
	h       Header
	payload []byte
}

// codecSeeds are codec-bearing frames as both transports shape them: fp16
// (2 elements), int8 (scale + 3 quanta) and top-k (count 1, index 0)
// payloads under their envelope codec ids — a PS push, a ring segment with
// its schedule position, a PS pull response.
func codecSeeds() []seed {
	return []seed{
		{Header{Op: 1, Codec: 1, Iter: 5, Seq: 11, Orig: 8, Key: "w0/L07[0/4]"}, []byte{0x3c, 0x00, 0xbc, 0x00}},
		{Header{Op: 1, Codec: 2, Iter: 2, Seq: 9, Step: 4, Chunk: 2, Orig: 12, Key: "L05[2/4]"}, []byte{0x3c, 0x81, 0x02, 0x04, 0x7f, 0x81, 0x00}},
		{Header{Op: 2, Codec: 3, Iter: 5, Orig: 16, Key: "w0/L07[2/4]"}, []byte{0, 0, 0, 1, 0, 0, 0, 0, 0x3f, 0x80, 0, 0}},
	}
}

// xiterSeeds are cross-iteration frames: with pipelining, iteration i and
// i+1 frames for the same key are in flight on one connection at once, and
// the iter field is the only thing that tells them apart.
func xiterSeeds() []seed {
	return []seed{
		{Header{Op: 1, Iter: 6, Seq: 20, Key: "w0/L00[0/2]"}, []byte{1, 2, 3, 4}},
		{Header{Op: 1, Iter: 7, Seq: 21, Key: "w0/L00[0/2]"}, []byte{5, 6, 7, 8}},
		{Header{Op: 1, Iter: 4, Seq: 12, Step: 1, Key: "L05[1/4]"}, []byte{0x40, 0x40, 0, 0, 0x40, 0x80, 0, 0}},
	}
}

// streamSeeds are several frames back to back, as one connection carries
// them: a payload that outgrows the connection's buffer, smaller ones that
// land in what it left behind (an error text after a pull response, an
// empty ack), and payloads one byte either side of the buffer's capacity.
func streamSeeds() [][]seed {
	big := make([]byte, 96)
	for i := range big {
		big[i] = byte(i)
	}
	return [][]seed{
		{{Header{Op: 2, Iter: 1, Seq: 3, Key: "w0/L00[0/1]"}, big}, {Header{Op: 3, Iter: 1, Seq: 4, Key: "w0/L00[0/1]"}, []byte("push overflow")}, {Header{Op: 1, Iter: 2, Seq: 5, Key: "w0/L00[0/1]"}, nil}},
		{{Header{Op: 1, Key: "a"}, []byte{1, 2, 3, 4}}, {Header{Op: 2, Key: "a"}, big[:64]}, {Header{Op: 2, Key: "b"}, big[:65]}, {Header{Op: 1, Key: "a"}, []byte{9}}},
	}
}

// stream concatenates frames as one connection would carry them.
func stream(t testing.TB, frames []seed) []byte {
	var b []byte
	for _, s := range frames {
		b = append(b, frame(t, s.h, s.payload)...)
	}
	return b
}

// parse is the frame layout spelled out over a byte slice, independently
// of the streaming reader: it parses the frame at the front of buf and
// returns it with the unparsed remainder. The payload aliases buf.
func parse(buf []byte) (h Header, payload, rest []byte, err error) {
	if len(buf) < fixedLen {
		return Header{}, nil, nil, errors.New("truncated header")
	}
	h = Header{
		Op: buf[0], Codec: buf[1],
		Iter:  binary.BigEndian.Uint32(buf[2:]),
		Seq:   binary.BigEndian.Uint64(buf[6:]),
		Step:  binary.BigEndian.Uint16(buf[14:]),
		Chunk: binary.BigEndian.Uint16(buf[16:]),
		Orig:  binary.BigEndian.Uint32(buf[18:]),
	}
	keyLen := int(binary.BigEndian.Uint16(buf[22:]))
	buf = buf[fixedLen:]
	if len(buf) < keyLen+4 {
		return Header{}, nil, nil, errors.New("truncated key")
	}
	h.Key = string(buf[:keyLen])
	n := binary.BigEndian.Uint32(buf[keyLen:])
	buf = buf[keyLen+4:]
	if n > MaxMessage || uint64(len(buf)) < uint64(n) {
		return Header{}, nil, nil, errors.New("truncated payload")
	}
	if n > 0 {
		payload = buf[:n:n]
	}
	return h, payload, buf[n:], nil
}

func FuzzRead(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame(f, Header{Op: 1, Iter: 3, Seq: 9, Key: "w0/L07[0/4]"}, []byte{1, 2, 3, 4}))
	f.Add(frame(f, Header{Op: 2, Key: "k"}, nil))
	f.Add(frame(f, Header{Op: 3}, []byte("bad request")))
	for _, s := range append(codecSeeds(), xiterSeeds()...) {
		f.Add(frame(f, s.h, s.payload))
	}
	// Adversarial length prefix: a near-limit payload backed by nothing.
	huge := frame(f, Header{Op: 1, Key: "x"}, nil)
	binary.BigEndian.PutUint32(huge[len(huge)-4:], MaxMessage-1)
	f.Add(huge)
	// An over-limit prefix must be rejected outright.
	over := frame(f, Header{Op: 1, Key: "x"}, nil)
	binary.BigEndian.PutUint32(over[len(over)-4:], MaxMessage+1)
	f.Add(over)
	for _, frames := range streamSeeds() {
		f.Add(stream(f, frames))
	}
	// A good frame, then the adversarial prefix with the buffer warm.
	f.Add(append(stream(f, streamSeeds()[0]), huge...))

	f.Fuzz(func(t *testing.T, data []byte) {
		readStream(t, data)
		readStreamInto(t, data)
		h, payload, err := Read(bytes.NewReader(data))
		nh, npayload, rest, nerr := parse(data)
		if (err == nil) != (nerr == nil) {
			t.Fatalf("Read err = %v, parse err = %v", err, nerr)
		}
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		if nh != h || !bytes.Equal(npayload, payload) {
			t.Fatalf("Read and parse disagree: %+v (%d bytes) vs %+v (%d bytes)", h, len(payload), nh, len(npayload))
		}
		// The payload can never exceed what the input actually carried.
		if len(payload) > len(data) {
			t.Fatalf("decoded payload %d bytes from %d input bytes", len(payload), len(data))
		}
		// An accepted frame re-encodes to the bytes it was read from.
		consumed := data[:len(data)-len(rest)]
		if re := frame(t, h, payload); !bytes.Equal(re, consumed) {
			t.Fatalf("WriteFrame round trip diverged:\n in  %x\n out %x", consumed, re)
		}
		vals, err := Floats(nil, h, payload)
		if h.Codec != 0 {
			return // lossy or sparse: decoding without a panic is the contract
		}
		// Raw fp32 payloads decode iff their length is a multiple of 4, and
		// re-encode losslessly (bit patterns, including NaNs).
		if (err == nil) != (len(payload)%4 == 0) {
			t.Fatalf("%d-byte fp32 payload: decode err = %v", len(payload), err)
		}
		if re, _, _ := AppendFloats(nil, compress.Identity(), vals); err == nil && !bytes.Equal(re, payload) {
			t.Fatalf("float round trip diverged:\n in  %x\n out %x", payload, re)
		}
	})
}

// readStream reads data's consecutive frames through one Conn, its read
// buffer dirtied before every read, until the first frame either reader
// rejects.
func readStream(t *testing.T, data []byte) {
	c := &Conn{br: bufio.NewReader(bytes.NewReader(data)), rbuf: make([]byte, 0, 64)}
	grew := allocated(func() {
		for rest := data; ; {
			buf := c.rbuf
			dirty(buf)
			h, payload, err := c.ReadFrame()
			nh, npayload, nrest, nerr := parse(rest)
			if (err == nil) != (nerr == nil) {
				t.Fatalf("frame at %d: ReadFrame err = %v, parse err = %v", len(data)-len(rest), err, nerr)
			}
			if err != nil {
				return
			}
			if nh != h || !bytes.Equal(npayload, payload) {
				t.Fatalf("frame at %d: ReadFrame and parse disagree: %+v (%d bytes) vs %+v (%d bytes)",
					len(data)-len(rest), h, len(payload), nh, len(npayload))
			}
			if n := len(payload); n > 0 && n <= cap(buf) {
				if &payload[0] != &buf[:1][0] || cap(payload) != n || !isDirty(buf[n:cap(buf)]) {
					t.Fatalf("frame at %d: %d-byte payload (cap %d) does not sit exactly at the front of the %d-byte buffer",
						len(data)-len(rest), n, cap(payload), cap(buf))
				}
			}
			if re := frame(t, h, payload); !bytes.Equal(re, rest[:len(rest)-len(nrest)]) {
				t.Fatalf("frame at %d re-encodes differently", len(data)-len(rest))
			}
			rest = nrest
		}
	})
	// Everything allocated is owed to bytes that arrived (payloads, their
	// re-encodings, growth by doubling) plus at most one capped
	// preallocation for a length prefix the stream then failed to back.
	if limit := uint64(2*maxPrealloc + 16*len(data) + 64<<10); grew > limit {
		t.Fatalf("reading a %d-byte stream allocated %d bytes, limit %d", len(data), grew, limit)
	}
}

// readStreamInto reads data's consecutive frames through one Conn's
// ReadFrameInto, until the first frame either it or parse rejects. Frame i
// is offered a destination, within a dirty guard, of the payload's length,
// three bytes longer, a byte short (refused) or none, in turn.
func readStreamInto(t *testing.T, data []byte) {
	c := &Conn{br: bufio.NewReader(bytes.NewReader(data))}
	for i, rest := 0, data; ; i++ {
		var guard, dst []byte
		h, payload, err := c.ReadFrameInto(func(_ Header, n int) []byte {
			if size := []int{n, n + 3, n - 1, -1}[i%4]; size >= 0 && n <= len(data) {
				guard = make([]byte, n+8)
				dirty(guard)
				dst = guard[:size]
			}
			return dst
		})
		nh, npayload, nrest, nerr := parse(rest)
		if (err == nil) != (nerr == nil) {
			t.Fatalf("frame %d: ReadFrameInto err = %v, parse err = %v", i, err, nerr)
		}
		if err != nil {
			return
		}
		if nh != h || !bytes.Equal(npayload, payload) {
			t.Fatalf("frame %d: ReadFrameInto and parse disagree: %+v (%d bytes) vs %+v (%d bytes)", i, h, len(payload), nh, len(npayload))
		}
		switch n := len(payload); {
		case n > len(dst):
			if !isDirty(guard) {
				t.Fatalf("frame %d: a %d-byte payload wrote into a refused %d-byte destination", i, n, len(dst))
			}
		case n > 0 && (&payload[0] != &dst[0] || cap(payload) != n):
			t.Fatalf("frame %d: %d-byte payload (cap %d) not at the front of its %d-byte destination", i, n, cap(payload), len(dst))
		case !isDirty(guard[min(n, len(guard)):]):
			t.Fatalf("frame %d: a %d-byte payload wrote past its length into a %d-byte destination", i, n, len(dst))
		}
		rest = nrest
	}
}
