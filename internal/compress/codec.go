package compress

// This file holds the real float32 wire codecs — the live-path counterpart
// of the Compressor cost model above. A Codec turns a []float32 gradient
// into a compact byte payload and back; netps and netar carry the codec id
// plus the original (uncompressed) byte length in their envelopes so any
// receiver can decode without out-of-band configuration.
//
// Wire formats. The identity payload is little-endian, so on every
// supported host it is the []float32's memory, read and written in place
// (fp32.go); the other payloads' integers and floats are big-endian,
// like the frame header around them:
//
//	identity  4n bytes: n fp32 values, little-endian
//	fp16      2n bytes: n IEEE-754 binary16 values (round-to-nearest-even)
//	int8      4+n bytes: fp32 scale, then n int8 quanta; v ≈ scale*q with
//	          scale = maxAbs/127 (QSGD-style symmetric per-tensor scale)
//	topk      4+8k bytes: uint32 k, then k (uint32 index, fp32 value) pairs
//	          sorted by index; unsent elements decode to zero. Each kept
//	          value carries a 4-byte index, so the wire cost is 2*keep of
//	          the original — the same value+index model Ratio() charges.
//
// Encoding is append-style into a caller-supplied buffer and allocation-free
// into one with EncodedLen spare capacity (top-k selects in that same
// buffer), so the transports' 0 allocs/op hot-path discipline holds with a
// codec attached.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// CodecID is the one-byte codec identifier carried in the netps and netar
// envelopes. Zero is the identity, so all pre-codec frames decode unchanged.
type CodecID uint8

const (
	// CodecIdentity is raw fp32 — the wire format of every frame before
	// codecs existed.
	CodecIdentity CodecID = 0
	// CodecFP16 casts to IEEE-754 half precision (2x smaller, lossy).
	CodecFP16 CodecID = 1
	// CodecInt8 quantizes with a per-tensor scale (≈4x smaller, lossy).
	CodecInt8 CodecID = 2
	// CodecTopK keeps the largest-magnitude fraction with indices (sparse,
	// lossy; kept values are exact).
	CodecTopK CodecID = 3
)

// Codec is a concrete, ready-to-use wire codec. The zero value is the
// identity codec.
type Codec struct {
	id    CodecID
	keep  float64 // top-k keep fraction; 0 outside CodecTopK
	count int     // top-k exact element count; overrides keep when > 0
}

// Identity returns the identity (raw fp32) codec.
func Identity() Codec { return Codec{} }

// FP16Codec returns the half-precision wire codec.
func FP16Codec() Codec { return Codec{id: CodecFP16} }

// Int8Codec returns the 8-bit per-tensor-scale quantization codec.
func Int8Codec() Codec { return Codec{id: CodecInt8} }

// TopKCodec returns a sparsifying codec keeping the given fraction of
// elements. keep must be in (0, 0.5]: each kept value carries a 4-byte
// index, so keep > 0.5 would inflate traffic above the uncompressed size.
func TopKCodec(keep float64) (Codec, error) {
	if !(keep > 0 && keep <= 0.5) {
		return Codec{}, fmt.Errorf(
			"compress: top-k keep ratio %v out of (0,0.5] (value+index wire cost is 2*keep of the original)", keep)
	}
	return Codec{id: CodecTopK, keep: keep}, nil
}

// TopKCodecCount returns a sparsifying codec keeping exactly k elements
// (clamped to the vector length). Aggregating receivers use this to
// re-encode a combined gradient with the same count its contributors sent —
// the count is on the wire, the keep fraction is not.
func TopKCodecCount(k int) (Codec, error) {
	if k < 1 {
		return Codec{}, fmt.Errorf("compress: top-k count %d below 1", k)
	}
	return Codec{id: CodecTopK, count: k}, nil
}

// ParseCodec parses a CLI codec spec: "", "none" or "identity", "fp16",
// "int8", or "topk:<keep>" (e.g. "topk:0.01"). Invalid specs return an
// error — never a panic — so a bad -codec flag reports cleanly.
func ParseCodec(spec string) (Codec, error) {
	switch s := strings.ToLower(strings.TrimSpace(spec)); {
	case s == "" || s == "none" || s == "identity":
		return Identity(), nil
	case s == "fp16":
		return FP16Codec(), nil
	case s == "int8":
		return Int8Codec(), nil
	case strings.HasPrefix(s, "topk:"):
		keep, err := strconv.ParseFloat(strings.TrimPrefix(s, "topk:"), 64)
		if err != nil {
			return Codec{}, fmt.Errorf("compress: bad top-k keep ratio in %q: %v", spec, err)
		}
		return TopKCodec(keep)
	default:
		return Codec{}, fmt.Errorf("compress: unknown codec %q (want none|fp16|int8|topk:<keep>)", spec)
	}
}

// CodecByID returns the decode-capable codec for a wire id. A top-k codec
// recovered this way decodes any k (the count is on the wire) but encodes
// with keep=0.5, the maximum; use TopKCodec for a specific encode ratio.
func CodecByID(id CodecID) (Codec, error) {
	switch id {
	case CodecIdentity, CodecFP16, CodecInt8:
		return Codec{id: id}, nil
	case CodecTopK:
		return Codec{id: CodecTopK, keep: 0.5}, nil
	default:
		return Codec{}, fmt.Errorf("compress: unknown codec id %d", id)
	}
}

// ID returns the wire identifier.
func (c Codec) ID() CodecID { return c.id }

// IsIdentity reports whether the codec is the raw-fp32 identity.
func (c Codec) IsIdentity() bool { return c.id == CodecIdentity }

// Name returns the CLI spelling of the codec (round-trips via ParseCodec).
func (c Codec) Name() string {
	switch c.id {
	case CodecIdentity:
		return "none"
	case CodecFP16:
		return "fp16"
	case CodecInt8:
		return "int8"
	case CodecTopK:
		return fmt.Sprintf("topk:%g", c.keep)
	}
	return fmt.Sprintf("codec(%d)", c.id)
}

// topKCount is the number of elements the codec keeps for n elements: the
// exact count when one was pinned, else floor(keep*n); at least 1, at most
// n.
func (c Codec) topKCount(n int) int {
	if n == 0 {
		return 0
	}
	k := c.count
	if k == 0 {
		k = int(c.keep * float64(n))
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// EncodedLen returns the exact payload size for n elements.
func (c Codec) EncodedLen(n int) int {
	switch c.id {
	case CodecFP16:
		return 2 * n
	case CodecInt8:
		return 4 + n
	case CodecTopK:
		return 4 + 8*c.topKCount(n)
	default:
		return 4 * n
	}
}

// AppendEncode appends the encoded form of v to dst and returns the grown
// slice. Encoding into a buffer with EncodedLen(len(v)) spare capacity is
// allocation-free.
func (c Codec) AppendEncode(dst []byte, v []float32) []byte {
	switch c.id {
	case CodecFP16:
		for _, x := range v {
			dst = binary.BigEndian.AppendUint16(dst, f32bitsToF16(math.Float32bits(x)))
		}
		return dst
	case CodecInt8:
		return appendInt8(dst, v)
	case CodecTopK:
		return c.appendTopK(dst, v)
	default:
		return appendRaw(dst, v)
	}
}

// AppendDecode appends the n decoded elements of payload to dst and returns
// the grown slice. n is the original element count from the envelope; the
// payload length must match the codec's framing exactly.
func (c Codec) AppendDecode(dst []float32, payload []byte, n int) ([]float32, error) {
	if n < 0 {
		return dst, fmt.Errorf("compress: negative element count %d", n)
	}
	switch c.id {
	case CodecFP16:
		if len(payload) != 2*n {
			return dst, fmt.Errorf("compress: fp16 payload %dB for %d elements", len(payload), n)
		}
		for i := 0; i < n; i++ {
			bits := f16ToF32bits(binary.BigEndian.Uint16(payload[2*i:]))
			dst = append(dst, math.Float32frombits(bits))
		}
		return dst, nil
	case CodecInt8:
		return decodeInt8(dst, payload, n)
	case CodecTopK:
		return decodeTopK(dst, payload, n)
	default:
		return decodeRaw(dst, payload, n)
	}
}

// f32bitsToF16 converts fp32 bits to fp16 bits with round-to-nearest-even.
// Overflow saturates to infinity; NaN payloads are preserved (quietened).
func f32bitsToF16(b uint32) uint16 {
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	mant := b & 0x7fffff
	if exp == 0xff { // Inf or NaN
		if mant == 0 {
			return sign | 0x7c00
		}
		return sign | 0x7e00 // quiet NaN
	}
	e := exp - 127 + 15
	if e >= 0x1f { // overflow -> Inf
		return sign | 0x7c00
	}
	if e <= 0 { // half subnormal or zero
		if e < -10 || exp == 0 {
			return sign // underflows to signed zero
		}
		m := mant | 0x800000 // implicit bit
		shift := uint32(14 - e)
		h := uint16(m >> shift)
		rem := m & (1<<shift - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && h&1 == 1) {
			h++ // may carry into the exponent; that is the correct rounding
		}
		return sign | h
	}
	h := sign | uint16(e)<<10 | uint16(mant>>13)
	rem := mant & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && h&1 == 1) {
		h++ // carry into exponent rounds up to the next binade (or Inf)
	}
	return h
}

// f16ToF32bits converts fp16 bits to fp32 bits (exact).
func f16ToF32bits(h uint16) uint32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if mant == 0 {
			return sign
		}
		e := uint32(113) // normalize the subnormal
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		return sign | e<<23 | (mant&0x3ff)<<13
	case exp == 0x1f:
		return sign | 0x7f800000 | mant<<13
	default:
		return sign | (exp+112)<<23 | mant<<13
	}
}

// appendInt8 encodes v as a fp32 scale plus one int8 per element. The scale
// is maxAbs/127; quantization rounds to nearest and saturates at ±127, so
// round-tripping x gives |x' - x| <= scale/2.
func appendInt8(dst []byte, v []float32) []byte {
	var maxAbs float32
	for _, x := range v {
		a := x
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(scale))
	for _, x := range v {
		var q int8
		if scale > 0 {
			r := math.Round(float64(x) / float64(scale))
			switch {
			case r > 127:
				q = 127
			case r < -127:
				q = -127
			case r == r: // filters NaN
				q = int8(r)
			}
		}
		dst = append(dst, byte(q))
	}
	return dst
}

func decodeInt8(dst []float32, payload []byte, n int) ([]float32, error) {
	if len(payload) != 4+n {
		return dst, fmt.Errorf("compress: int8 payload %dB for %d elements", len(payload), n)
	}
	scale := math.Float32frombits(binary.BigEndian.Uint32(payload))
	for _, b := range payload[4 : 4+n] {
		dst = append(dst, scale*float32(int8(b)))
	}
	return dst, nil
}

// appendTopK encodes the k largest-|v| elements (ties keep the lower
// index) as (index, value) pairs sorted by index — deterministic for a
// given input, which keeps fused keys comparable across workers. The
// selection needs no scratch: its heap is the k output pairs themselves,
// sorted by index in place at the end.
func (c Codec) appendTopK(dst []byte, v []float32) []byte {
	n, k := len(v), c.topKCount(len(v))
	start := len(dst)
	dst = slices.Grow(dst, 4+8*k)[:start+4+8*k]
	binary.BigEndian.PutUint32(dst[start:], uint32(k))
	heap := pairHeap(dst[start+4:])
	// evicted(a, b): pair a loses to pair b in the keep-largest min-heap
	// (smaller magnitude loses; equal magnitude, higher index loses — so
	// the lowest indices survive ties).
	evicted := func(a, b uint64) bool {
		va, vb := abs32(math.Float32frombits(uint32(a))), abs32(math.Float32frombits(uint32(b)))
		if va != vb {
			return va < vb
		}
		return a>>32 > b>>32
	}
	var top uint64 // the weakest kept pair, at the root
	for i := 0; i < n; i++ {
		p := uint64(i)<<32 | uint64(math.Float32bits(v[i]))
		switch {
		case i < k:
			heap.set(i, p)
			heap[:8*i+8].siftUp(i, evicted)
		case evicted(top, p):
			heap.set(0, p)
			heap.siftDown(0, evicted)
		default:
			continue
		}
		top = heap.at(0)
	}
	heap.sort()
	return dst
}

func decodeTopK(dst []float32, payload []byte, n int) ([]float32, error) {
	if len(payload) < 4 {
		return dst, fmt.Errorf("compress: top-k payload %dB lacks a count", len(payload))
	}
	k := binary.BigEndian.Uint32(payload)
	if int64(k) > int64(n) || len(payload) != 4+8*int(k) {
		return dst, fmt.Errorf("compress: top-k payload %dB, count %d, for %d elements", len(payload), k, n)
	}
	base := len(dst)
	dst = append(dst, make([]float32, n)...) // one growth, after the count checked out
	for e := 0; e < int(k); e++ {
		off := 4 + 8*e
		i := binary.BigEndian.Uint32(payload[off:])
		if int64(i) >= int64(n) {
			return dst[:base], fmt.Errorf("compress: top-k index %d out of %d elements", i, n)
		}
		dst[base+int(i)] = math.Float32frombits(binary.BigEndian.Uint32(payload[off+4:]))
	}
	return dst, nil
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// pairHeap is a binary heap of top-k output pairs, each a big-endian
// uint64: the element index in the high half, its fp32 bits in the low.
type pairHeap []byte

func (h pairHeap) at(i int) uint64     { return binary.BigEndian.Uint64(h[8*i:]) }
func (h pairHeap) set(i int, p uint64) { binary.BigEndian.PutUint64(h[8*i:], p) }

func (h pairHeap) swap(i, j int) {
	x, y := h.at(i), h.at(j)
	h.set(i, y)
	h.set(j, x)
}

func (h pairHeap) siftUp(i int, less func(a, b uint64) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(h.at(i), h.at(p)) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h pairHeap) siftDown(i int, less func(a, b uint64) bool) {
	n := len(h) / 8
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && less(h.at(l), h.at(m)) {
			m = l
		}
		if r < n && less(h.at(r), h.at(m)) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// sort orders the pairs by index, ascending, in place (heapsort).
func (h pairHeap) sort() {
	desc := func(x, y uint64) bool { return x>>32 > y>>32 }
	for i := len(h)/16 - 1; i >= 0; i-- {
		h.siftDown(i, desc)
	}
	for end := len(h)/8 - 1; end > 0; end-- {
		h.swap(0, end)
		h[:8*end].siftDown(0, desc)
	}
}
