// Package wire is the one frame layer under both live transports. netps
// (parameter server) and netar (ring all-reduce) do the same job below
// their state machines — put a keyed, codec-tagged fp32 partition on a TCP
// socket as cheaply as the per-message overhead θ of §2.2/§4.2 allows — so
// they do it with the same code: this package is the only place that knows
// the frame layout, how fp32 vectors and codec payloads sit in it, how a
// frame is written to and read from a socket, and how a retry delay grows.
//
// One layout for everybody:
//
//	op(1) codec(1) iter(4) seq(8) step(2) chunk(2) orig(4) keyLen(2) key payloadLen(4) payload
//
// The header's integers are big-endian. The identity (codec 0) payload is
// little-endian fp32, which on every supported host (amd64, arm64) is the
// []float32's own memory: AppendFloats and Floats are one memmove each, and
// a receiver can sum straight from the payload (compress.AddRaw). The other
// codecs' payloads keep their big-endian formats.
//
// Op is an opaque byte here; each transport defines its own op codes.
// netps leaves Step and Chunk zero. All endpoints live in this repository
// and are built from one commit: the format carries no version and no
// cross-version compatibility is promised.
//
// A Conn owns everything one connection frames with. Frames cost one write
// per batch: Stage puts a frame's header in the Conn's own buffer, and
// Flush hands every staged header and payload to the kernel in a single
// writev (net.Buffers), which only works on the raw net.Conn — a wrapper
// type silently degrades it to one write per buffer. A frame costs (at
// most) one read through the Conn's bufio.Reader, and the reader never
// trusts a length prefix further than the bytes that actually arrive.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"bytescheduler/internal/compress"
)

// MaxMessage bounds a single frame's payload, on write and on read.
const MaxMessage = 512 << 20

// maxPrealloc caps the up-front payload allocation while reading a frame:
// a malicious length prefix can make the decoder *work* at most this hard
// before the stream runs dry, never allocate the full advertised size.
const maxPrealloc = 4 << 20

// maxKey is the longest key the 2-byte length prefix can carry.
const maxKey = 1<<16 - 1

// fixedLen is the length of the constant-size header prefix, up to and
// including keyLen.
const fixedLen = 1 + 1 + 4 + 8 + 2 + 2 + 4 + 2

// Header is everything in a frame but its payload.
type Header struct {
	// Op is the transport's operation code, opaque to this package.
	Op uint8
	// Codec is the wire-codec id (compress.CodecID) the payload is encoded
	// with; 0 is raw fp32.
	Codec uint8
	// Iter is the training iteration the frame belongs to.
	Iter uint32
	// Seq identifies the logical request (netps: stable across the retries
	// of one request, so the server can deduplicate replayed pushes; netar:
	// a per-peer frame counter for diagnostics).
	Seq uint64
	// Step and Chunk place a ring segment in the 2(M-1)-step collective
	// schedule; netps leaves them zero.
	Step, Chunk uint16
	// Orig is the original (uncompressed) fp32 byte length when Codec is
	// non-zero — the receiver needs the element count to decode. Zero when
	// Codec is 0, where the payload length is the original length.
	Orig uint32
	// Key names the partition; at most 65 535 bytes.
	Key string
}

// check enforces the write-side limits.
func check(h Header, n int) error {
	if len(h.Key) > maxKey {
		return fmt.Errorf("wire: key too long (%d bytes)", len(h.Key))
	}
	if n > MaxMessage {
		return fmt.Errorf("wire: payload too large (%d bytes)", n)
	}
	return nil
}

// appendHeader appends everything that precedes an n-byte payload.
func appendHeader(dst []byte, h Header, n int) []byte {
	dst = append(dst, h.Op, h.Codec)
	dst = binary.BigEndian.AppendUint32(dst, h.Iter)
	dst = binary.BigEndian.AppendUint64(dst, h.Seq)
	dst = binary.BigEndian.AppendUint16(dst, h.Step)
	dst = binary.BigEndian.AppendUint16(dst, h.Chunk)
	dst = binary.BigEndian.AppendUint32(dst, h.Orig)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.Key)))
	dst = append(dst, h.Key...)
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// parseFixed decodes the constant-size prefix and returns the key length.
func parseFixed(b []byte) (Header, int) {
	_ = b[fixedLen-1]
	return Header{
		Op:    b[0],
		Codec: b[1],
		Iter:  binary.BigEndian.Uint32(b[2:6]),
		Seq:   binary.BigEndian.Uint64(b[6:14]),
		Step:  binary.BigEndian.Uint16(b[14:16]),
		Chunk: binary.BigEndian.Uint16(b[16:18]),
		Orig:  binary.BigEndian.Uint32(b[18:22]),
	}, int(binary.BigEndian.Uint16(b[22:24]))
}

// Conn is one connection's framing state, owned by whoever dialed or
// accepted it: a 4 KB bufio.Reader and a read buffer for its one reader,
// and header/writev staging for one writer at a time. The two sides share
// no field, so one goroutine may read while another writes.
type Conn struct {
	net.Conn
	br         *bufio.Reader
	rhdr, rbuf []byte
	// whdr holds the staged frames' headers back to back, and vec the
	// writev vector over them and their payloads.
	whdr []byte
	vec  [][]byte
	// bufs is the slice header WriteTo consumes; it lives here rather than
	// on Flush's stack because WriteTo's receiver escapes.
	bufs net.Buffers
}

// NewConn takes over c for framing; c itself stays reachable for deadlines
// and Close.
func NewConn(c net.Conn) *Conn { return &Conn{Conn: c, br: bufio.NewReaderSize(c, 4096)} }

// WriteFrame frames h and payload onto the raw connection: Stage, then
// Flush.
func (c *Conn) WriteFrame(h Header, payload []byte) error {
	if err := c.Stage(h, payload); err != nil {
		return err
	}
	return c.Flush()
}

// Stage adds one frame to the next Flush, or refuses it — staging nothing
// — when its key or payload is over the limit. The payload is not copied:
// it must stay unchanged until Flush returns.
func (c *Conn) Stage(h Header, payload []byte) error {
	if err := check(h, len(payload)); err != nil {
		return err
	}
	// A header already in vec keeps its bytes if whdr grows: append never
	// writes into the array it outgrew.
	from := len(c.whdr)
	c.whdr = appendHeader(c.whdr, h, len(payload))
	if c.vec = append(c.vec, c.whdr[from:]); len(payload) > 0 {
		c.vec = append(c.vec, payload)
	}
	return nil
}

// Flush writes every staged frame in one scatter-gather write (a single
// writev; one Write for a lone header) and unstages them, whether or not
// the write succeeded. Payloads are never copied into the header buffer.
func (c *Conn) Flush() error {
	var err error
	switch len(c.vec) {
	case 0:
		return nil
	case 1:
		_, err = c.Conn.Write(c.vec[0])
	default:
		// WriteTo consumes the Buffers it is called on — it advances the
		// slice to zero length AND zero capacity. So the Conn keeps the
		// backing array (vec) and every flush re-slices it; keeping the
		// consumed slice itself would make every flush reallocate it.
		c.bufs = c.vec
		_, err = c.bufs.WriteTo(c.Conn)
	}
	clear(c.vec) // drop the payload references
	c.whdr, c.vec = c.whdr[:0], c.vec[:0]
	return err
}

// ReadFrame reads one frame into the connection's read buffer, which grows
// to the largest frame it carries up to maxPrealloc (larger ones are
// allocated per read). The payload never reaches past its own length and is
// valid only until the next ReadFrame, unless its buffer is taken with Take.
func (c *Conn) ReadFrame() (Header, []byte, error) { return c.read(c.br) }

// Take hands the caller the read buffer the last payload landed in, to own
// from then on, and gives the connection next (may be nil) to read into.
func (c *Conn) Take(next []byte) []byte {
	b := c.rbuf
	c.rbuf = next[:0]
	return b
}

// Await blocks until the first byte of the next frame has arrived, without
// consuming it: an idle connection waits with no deadline, and the caller
// may arm one for the rest of the frame.
func (c *Conn) Await() error {
	_, err := c.br.Peek(1)
	return err
}

// Read reads one frame from a reader no Conn owns into a payload of its
// own.
func Read(r io.Reader) (Header, []byte, error) { return new(Conn).read(r) }

// read reads one frame from r through c's header scratch and read buffer
// (see ReadFrame). It returns an error — never panics, never allocates
// beyond the bytes actually received — on truncated or adversarial input
// (FuzzRead enforces this).
func (c *Conn) read(r io.Reader) (Header, []byte, error) {
	c.rhdr = slices.Grow(c.rhdr[:0], fixedLen)[:fixedLen]
	if _, err := io.ReadFull(r, c.rhdr); err != nil {
		return Header{}, nil, err
	}
	h, keyLen := parseFixed(c.rhdr)
	c.rhdr = slices.Grow(c.rhdr[:0], keyLen+4)[:keyLen+4]
	if _, err := io.ReadFull(r, c.rhdr); err != nil {
		return Header{}, nil, truncated(err)
	}
	h.Key = string(c.rhdr[:keyLen])
	n := binary.BigEndian.Uint32(c.rhdr[keyLen:])
	if n > MaxMessage {
		return Header{}, nil, fmt.Errorf("wire: payload length %d exceeds limit", n)
	}
	payload, err := readPayload(r, int(n), c.rbuf)
	if err != nil {
		return Header{}, nil, truncated(err)
	}
	if cap(payload) > cap(c.rbuf) && cap(payload) <= maxPrealloc {
		c.rbuf = payload[:0]
	}
	return h, payload, nil
}

// truncated reports a stream that ends inside a frame as
// io.ErrUnexpectedEOF: only a stream that ends between frames is io.EOF.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readPayload reads exactly n payload bytes, into buf when they fit.
// Otherwise the up-front allocation is capped at maxPrealloc: small
// payloads get one exact allocation, large ones grow with the bytes that
// actually arrive, so an adversarial length prefix cannot force a giant
// allocation before the stream runs dry.
func readPayload(r io.Reader, n int, buf []byte) ([]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	switch {
	case n <= cap(buf):
		buf = buf[:n:n]
	case n <= maxPrealloc:
		buf = make([]byte, n)
	default:
		var b bytes.Buffer
		b.Grow(maxPrealloc)
		if _, err := io.CopyN(&b, r, int64(n)); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendFloats encodes v through c onto dst and returns the payload with
// the two envelope fields its Header must carry. The identity codec is
// codec 0 with orig 0: the payload length is the original length.
func AppendFloats(dst []byte, c compress.Codec, v []float32) (payload []byte, codec uint8, orig uint32) {
	payload = c.AppendEncode(dst, v)
	if c.IsIdentity() {
		return payload, 0, 0
	}
	return payload, uint8(c.ID()), uint32(4 * len(v))
}

// Floats appends the fp32 values of a frame's payload to dst, decoding by
// the envelope in h: codec 0 is raw fp32, anything else decodes Orig/4
// elements through the identified codec. Orig is validated before
// anything is decoded; the caller checks the element count against what
// it expects.
func Floats(dst []float32, h Header, payload []byte) ([]float32, error) {
	c := compress.Identity()
	n := len(payload) / 4
	if h.Codec != 0 {
		var err error
		if c, err = compress.CodecByID(compress.CodecID(h.Codec)); err != nil {
			return dst, err
		}
		if h.Orig == 0 || h.Orig%4 != 0 || h.Orig > MaxMessage {
			return dst, fmt.Errorf("wire: original length %d is not a positive multiple of 4 within limits", h.Orig)
		}
		n = int(h.Orig / 4)
	} else if len(payload)%4 != 0 {
		return dst, fmt.Errorf("wire: payload not a float32 vector (%d bytes)", len(payload))
	}
	if n <= len(payload) {
		// Dense payloads get one exact allocation. A sparse (top-k) payload
		// may claim far more elements than it carries bytes, so it grows
		// only after the codec has validated its count.
		dst = slices.Grow(dst, n)
	}
	return c.AppendDecode(dst, payload, n)
}

// Backoff is the retry-delay policy both transports share: exponential
// from Base, capped at Max, spread by a multiplicative jitter the caller
// draws from its own (seeded, locked) generator with fraction Jitter.
type Backoff struct {
	// Base is the first retry delay; it doubles per attempt. Zero or
	// negative disables backoff.
	Base time.Duration
	// Max caps the delay; zero or negative means uncapped.
	Max time.Duration
	// Jitter is the fraction the caller passes to its generator to draw
	// Delay's jitter factor, uniform in [1-Jitter, 1+Jitter].
	Jitter float64
}

// uncapped bounds an uncapped backoff below the int64 overflow, with
// headroom for the jitter factor.
const uncapped = time.Duration(1) << 61

// Delay returns the delay before retry number attempt (0-based), scaled by
// jitter. It doubles without ever shifting past int64 — a wrapped-negative
// delay would skip the sleep and turn a retry loop into a hot spin — so it
// is monotone in attempt, positive for a positive Base, and never above a
// positive Max (before jitter).
func (b Backoff) Delay(attempt int, jitter float64) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	limit := b.Max
	if limit <= 0 || limit > uncapped {
		limit = uncapped
	}
	d := b.Base
	for ; attempt > 0 && d < limit; attempt-- {
		d <<= 1
	}
	if d > limit {
		d = limit
	}
	return time.Duration(float64(d) * jitter)
}
