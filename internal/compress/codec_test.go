package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randVec(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		// Gradient-like values across several orders of magnitude, signed.
		v[i] = float32((r.Float64()*2 - 1) * math.Pow(10, float64(r.Intn(7)-3)))
	}
	return v
}

func roundTrip(t *testing.T, c Codec, v []float32) []float32 {
	t.Helper()
	enc := c.AppendEncode(nil, v)
	if got, want := len(enc), c.EncodedLen(len(v)); got != want {
		t.Fatalf("%s: encoded %dB, EncodedLen says %d", c.Name(), got, want)
	}
	dec, err := c.AppendDecode(nil, enc, len(v))
	if err != nil {
		t.Fatalf("%s: decode: %v", c.Name(), err)
	}
	if len(dec) != len(v) {
		t.Fatalf("%s: decoded %d elements, want %d", c.Name(), len(dec), len(v))
	}
	return dec
}

func TestIdentityRoundTripExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 256, 1023} {
		v := randVec(r, n)
		dec := roundTrip(t, Identity(), v)
		for i := range v {
			if dec[i] != v[i] {
				t.Fatalf("n=%d i=%d: %v != %v", n, i, dec[i], v[i])
			}
		}
	}
}

// fp16 round-trip must be within half-precision tolerance: relative error
// <= 2^-11 for values in the normal half range.
func TestFP16RoundTripTolerance(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 64, 1000} {
		v := randVec(r, n)
		dec := roundTrip(t, FP16Codec(), v)
		for i := range v {
			want := float64(v[i])
			got := float64(dec[i])
			if math.Abs(got-want) > math.Abs(want)*(1.0/2048)+1e-7 {
				t.Fatalf("n=%d i=%d: %v -> %v exceeds fp16 tolerance", n, i, want, got)
			}
		}
	}
}

func TestFP16SpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	v := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 65504, -65504,
		1e9, -1e9, inf, -inf, nan, 5.9604645e-8, 1e-20}
	dec := roundTrip(t, FP16Codec(), v)
	checks := []struct {
		i    int
		name string
		ok   bool
	}{
		{0, "zero", dec[0] == 0},
		{2, "one", dec[2] == 1},
		{3, "minus one", dec[3] == -1},
		{4, "max half", dec[4] == 65504},
		{6, "overflow", math.IsInf(float64(dec[6]), 1)},
		{8, "+inf", math.IsInf(float64(dec[8]), 1)},
		{9, "-inf", math.IsInf(float64(dec[9]), -1)},
		{10, "nan", math.IsNaN(float64(dec[10]))},
		{12, "underflow", dec[12] == 0},
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("%s: %v -> %v", c.name, v[c.i], dec[c.i])
		}
	}
}

// Every representable half value must convert to fp32 and back bit-exactly.
func TestFP16ExhaustiveRoundTrip(t *testing.T) {
	for h := 0; h <= 0xffff; h++ {
		f32 := f16ToF32bits(uint16(h))
		back := f32bitsToF16(f32)
		// NaNs collapse to the canonical quiet NaN; everything else is exact.
		if isNaN16 := uint16(h)&0x7c00 == 0x7c00 && uint16(h)&0x3ff != 0; isNaN16 {
			if back&0x7c00 != 0x7c00 || back&0x3ff == 0 {
				t.Fatalf("half %#04x: NaN not preserved (got %#04x)", h, back)
			}
			continue
		}
		if back != uint16(h) {
			t.Fatalf("half %#04x -> f32 %#08x -> %#04x", h, f32, back)
		}
	}
}

// int8 round-trip error is bounded by half a quantization step.
func TestInt8RoundTripTolerance(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 64, 1000} {
		v := randVec(r, n)
		var maxAbs float64
		for _, x := range v {
			if a := math.Abs(float64(x)); a > maxAbs {
				maxAbs = a
			}
		}
		step := maxAbs / 127
		dec := roundTrip(t, Int8Codec(), v)
		for i := range v {
			if math.Abs(float64(dec[i])-float64(v[i])) > step/2+1e-9 {
				t.Fatalf("n=%d i=%d: %v -> %v exceeds step/2 = %v", n, i, v[i], dec[i], step/2)
			}
		}
	}
}

func TestInt8ConstantsExact(t *testing.T) {
	// Constant vectors quantize exactly (q = ±127): the live harness
	// relies on this for its cross-worker sum verification.
	for _, x := range []float32{1, 2, 3.5, -4} {
		v := []float32{x, x, x, x}
		dec := roundTrip(t, Int8Codec(), v)
		for i := range dec {
			if dec[i] != x {
				t.Fatalf("constant %v decoded to %v", x, dec[i])
			}
		}
	}
	// All-zero input must not divide by zero.
	dec := roundTrip(t, Int8Codec(), make([]float32, 8))
	for _, x := range dec {
		if x != 0 {
			t.Fatalf("zero vector decoded to %v", x)
		}
	}
}

// Top-k keeps the k largest magnitudes exactly and zeroes the rest.
func TestTopKExactOnKeptIndices(t *testing.T) {
	c, err := TopKCodec(0.25)
	if err != nil {
		t.Fatal(err)
	}
	v := []float32{0.1, -9, 0.2, 3, -0.3, 0.4, 7, 0.5} // n=8, k=2 -> |-9| and |7|
	dec := roundTrip(t, c, v)
	want := []float32{0, -9, 0, 0, 0, 0, 7, 0}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("i=%d: got %v want %v (dec=%v)", i, dec[i], want[i], dec)
		}
	}
}

func TestTopKTieBreaksLowIndex(t *testing.T) {
	c, err := TopKCodec(0.5)
	if err != nil {
		t.Fatal(err)
	}
	v := []float32{2, -2, 2, 2} // k=2: ties must keep indices 0 and 1
	dec := roundTrip(t, c, v)
	want := []float32{2, -2, 0, 0}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("tie-break: got %v want %v", dec, want)
		}
	}
}

func TestTopKProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	c, err := TopKCodec(0.1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		v := randVec(r, n)
		k := c.topKCount(n)
		dec := roundTrip(t, c, v)
		// Every kept element is exact; count matches k; the smallest kept
		// magnitude dominates every dropped element.
		kept := 0
		minKept := float32(math.Inf(1))
		for i := range v {
			if dec[i] != 0 {
				if dec[i] != v[i] {
					t.Fatalf("trial %d: kept value inexact: %v != %v", trial, dec[i], v[i])
				}
				kept++
				if a := abs32(v[i]); a < minKept {
					minKept = a
				}
			}
		}
		// Kept zeros are indistinguishable from dropped ones, so compare <=.
		if kept > k {
			t.Fatalf("trial %d: kept %d elements, want <= %d", trial, kept, k)
		}
		for i := range v {
			if dec[i] == 0 && v[i] != 0 && abs32(v[i]) > minKept {
				t.Fatalf("trial %d: dropped %v though min kept magnitude is %v", trial, v[i], minKept)
			}
		}
	}
}

// TestTopKEncodeAllocs: top-k selects in the tail of the caller's buffer,
// so encoding into one with EncodedLen spare capacity allocates nothing —
// under the race detector too, where a pooled scratch would be dropped now
// and then. And the in-place selection emits exactly the bytes a sort-based
// reference does (by |v| descending, then index ascending) over seeded
// vectors dense in ties and signed zeros, for k of 1, n/2 and n.
func TestTopKEncodeAllocs(t *testing.T) {
	v := randVec(rand.New(rand.NewSource(7)), 4096)
	c, err := TopKCodec(0.01)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 3+c.EncodedLen(len(v)))
	if allocs := testing.AllocsPerRun(50, func() { dst = c.AppendEncode(dst[:3], v) }); allocs != 0 {
		t.Fatalf("top-k AppendEncode into a presized buffer allocates %v times per call, want 0", allocs)
	}

	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(64)
		v := make([]float32, n)
		for i := range v {
			v[i] = []float32{0, float32(math.Copysign(0, -1)), 1, -1, 2, -2, 0.5}[r.Intn(7)]
		}
		for _, k := range []int{1, max(1, n/2), n} {
			c, err := TopKCodecCount(k)
			if err != nil {
				t.Fatal(err)
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool { return math.Abs(float64(v[idx[a]])) > math.Abs(float64(v[idx[b]])) })
			kept := idx[:k]
			sort.Ints(kept)
			want := binary.BigEndian.AppendUint32([]byte("pre"), uint32(k))
			for _, i := range kept {
				want = binary.BigEndian.AppendUint32(want, uint32(i))
				want = binary.BigEndian.AppendUint32(want, math.Float32bits(v[i]))
			}
			if got := c.AppendEncode([]byte("pre"), v); !bytes.Equal(got, want) {
				t.Fatalf("trial %d, k=%d of %v:\n got  %x\n want %x", trial, k, v, got, want)
			}
		}
	}
}

func TestParseCodec(t *testing.T) {
	good := map[string]CodecID{
		"": CodecIdentity, "none": CodecIdentity, "identity": CodecIdentity,
		"fp16": CodecFP16, "INT8": CodecInt8, "topk:0.01": CodecTopK,
	}
	for spec, id := range good {
		c, err := ParseCodec(spec)
		if err != nil || c.ID() != id {
			t.Errorf("ParseCodec(%q) = %v, %v; want id %d", spec, c, err, id)
		}
	}
	for _, spec := range []string{"fp8", "topk", "topk:0", "topk:0.6", "topk:x", "gzip"} {
		if _, err := ParseCodec(spec); err == nil {
			t.Errorf("ParseCodec(%q) accepted", spec)
		}
	}
}

func TestCodecByID(t *testing.T) {
	for _, id := range []CodecID{CodecIdentity, CodecFP16, CodecInt8, CodecTopK} {
		c, err := CodecByID(id)
		if err != nil || c.ID() != id {
			t.Fatalf("CodecByID(%d) = %v, %v", id, c, err)
		}
	}
	if _, err := CodecByID(200); err == nil {
		t.Fatal("unknown codec id accepted")
	}
}

func TestDecodeRejectsBadFraming(t *testing.T) {
	v := []float32{1, 2, 3, 4}
	for _, c := range []Codec{Identity(), FP16Codec(), Int8Codec()} {
		enc := c.AppendEncode(nil, v)
		if _, err := c.AppendDecode(nil, enc[:len(enc)-1], len(v)); err == nil {
			t.Errorf("%s: truncated payload accepted", c.Name())
		}
		if _, err := c.AppendDecode(nil, enc, len(v)+1); err == nil {
			t.Errorf("%s: wrong element count accepted", c.Name())
		}
	}
	tk, _ := TopKCodec(0.5)
	enc := tk.AppendEncode(nil, v)
	if _, err := tk.AppendDecode(nil, enc[:3], len(v)); err == nil {
		t.Error("topk: headerless payload accepted")
	}
	if _, err := tk.AppendDecode(nil, enc[:len(enc)-1], len(v)); err == nil {
		t.Error("topk: truncated payload accepted")
	}
	// Out-of-range index.
	bad := append([]byte(nil), enc...)
	bad[4], bad[5], bad[6], bad[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := tk.AppendDecode(nil, bad, len(v)); err == nil {
		t.Error("topk: out-of-range index accepted")
	}
}

func benchCodecEncode(b *testing.B, c Codec) {
	v := randVec(rand.New(rand.NewSource(5)), 4096)
	dst := make([]byte, 0, c.EncodedLen(len(v)))
	b.SetBytes(int64(4 * len(v)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.AppendEncode(dst[:0], v)
	}
	_ = dst
}

func BenchmarkCodecEncodeFP16(b *testing.B) { benchCodecEncode(b, FP16Codec()) }
func BenchmarkCodecEncodeInt8(b *testing.B) { benchCodecEncode(b, Int8Codec()) }
func BenchmarkCodecEncodeTopK(b *testing.B) {
	c, _ := TopKCodec(0.01)
	benchCodecEncode(b, c)
}

func BenchmarkCodecDecodeFP16(b *testing.B) {
	c := FP16Codec()
	v := randVec(rand.New(rand.NewSource(6)), 4096)
	enc := c.AppendEncode(nil, v)
	dst := make([]float32, 0, len(v))
	b.SetBytes(int64(4 * len(v)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = c.AppendDecode(dst[:0], enc, len(v))
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = dst
}
