package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// rawSpecials are the fp32 bit patterns a byte view must carry unchanged:
// signed zeros, infinities, quiet and signalling NaNs with payload bits,
// the smallest and largest subnormals, and the extremes of the normals.
var rawSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00001, 0x7fa5a5a5, 0x7f800001, 0xff812345, // NaNs
	0x00000001, 0x807fffff, 0x00400000, // subnormals
	0x00800000, 0x7f7fffff, 0xff7fffff, 0x3f800000, // normals
}

// rawVec is the specials followed by n random bit patterns.
func rawVec(r *rand.Rand, n int) []float32 {
	v := make([]float32, 0, len(rawSpecials)+n)
	for _, b := range rawSpecials {
		v = append(v, math.Float32frombits(b))
	}
	for i := 0; i < n; i++ {
		v = append(v, math.Float32frombits(r.Uint32()))
	}
	return v
}

// leReference is the identity payload spelled out value by value.
func leReference(v []float32) []byte {
	var b []byte
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// misaligned returns a copy of p starting one byte past a 4-byte boundary.
func misaligned(p []byte) []byte {
	buf := make([]byte, len(p)+1)
	copy(buf[1:], p)
	return buf[1:]
}

// TestRawPayloadGolden pins the identity payload's byte order: fp32 values
// little-endian, 1.0 as 00 00 80 3f.
func TestRawPayloadGolden(t *testing.T) {
	got := Identity().AppendEncode([]byte("x"), []float32{1, -2})
	want := []byte{'x', 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0}
	if !bytes.Equal(got, want) {
		t.Fatalf("identity payload of [1 -2] = % x, want % x", got, want)
	}
}

// TestRawPayloadRoundTripBits holds the identity codec to bitwise identity
// over NaN payloads, signed zeros, infinities and subnormals: the encoding
// is the value-by-value little-endian reference, and it decodes back to the
// same bits from an aligned payload and from a misaligned one.
func TestRawPayloadRoundTripBits(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	c := Identity()
	for _, n := range []int{0, 1, 3, 64, 1000} {
		v := rawVec(r, n)
		enc := c.AppendEncode(nil, v)
		if !bytes.Equal(enc, leReference(v)) {
			t.Fatalf("n=%d: encoding differs from the little-endian reference", n)
		}
		for name, payload := range map[string][]byte{"aligned": enc, "misaligned": misaligned(enc)} {
			dec, err := c.AppendDecode([]float32{7}, payload, len(v))
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if len(dec) != 1+len(v) || dec[0] != 7 {
				t.Fatalf("n=%d %s: decoded %d values, prefix %v", n, name, len(dec), dec[:1])
			}
			for i, x := range v {
				if got, want := math.Float32bits(dec[1+i]), math.Float32bits(x); got != want {
					t.Fatalf("n=%d %s: value %d decoded %08x, want %08x", n, name, i, got, want)
				}
			}
		}
	}
}

// TestRawPayloadSum holds AddRaw to the value-by-value little-endian sum,
// bit for bit, reading the payload in place when it is aligned and through
// the loop when it is not; a payload of the wrong length is an error that
// leaves the sum untouched.
func TestRawPayloadSum(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for _, n := range []int{0, 1, 5, 1000} {
		v := rawVec(r, n)
		enc := leReference(v)
		base := rawVec(r, n)
		want := append([]float32(nil), base...)
		for i := range want {
			want[i] += math.Float32frombits(binary.LittleEndian.Uint32(enc[4*i:]))
		}
		for name, payload := range map[string][]byte{"aligned": enc, "misaligned": misaligned(enc)} {
			sum := append([]float32(nil), base...)
			if err := AddRaw(sum, payload); err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			for i := range sum {
				if got, want := math.Float32bits(sum[i]), math.Float32bits(want[i]); got != want {
					t.Fatalf("n=%d %s: element %d summed to %08x, want %08x", n, name, i, got, want)
				}
			}
		}
	}
	sum := []float32{1, 2}
	for _, bad := range [][]byte{{0, 0, 0x80, 0x3f}, make([]byte, 9), make([]byte, 12)} {
		if err := AddRaw(sum, bad); err == nil || sum[0] != 1 || sum[1] != 2 {
			t.Fatalf("%d-byte payload into 2 values: err %v, sum %v", len(bad), err, sum)
		}
	}
}

// TestRawPayloadAllocs: identity encode into EncodedLen spare capacity,
// decode into a destination of the element count, and the in-place sum
// allocate nothing.
func TestRawPayloadAllocs(t *testing.T) {
	c := Identity()
	v := rawVec(rand.New(rand.NewSource(38)), 4096)
	dst := make([]byte, 0, c.EncodedLen(len(v)))
	if allocs := testing.AllocsPerRun(50, func() { dst = c.AppendEncode(dst[:0], v) }); allocs != 0 {
		t.Fatalf("identity AppendEncode allocates %v times per call, want 0", allocs)
	}
	out := make([]float32, len(v))
	if allocs := testing.AllocsPerRun(50, func() { out, _ = c.AppendDecode(out[:0], dst, len(v)) }); allocs != 0 {
		t.Fatalf("identity AppendDecode allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = AddRaw(out, dst) }); allocs != 0 {
		t.Fatalf("AddRaw allocates %v times per call, want 0", allocs)
	}
}

// rawBenchFloats is one 256 KB partition, the live_ps partition size.
const rawBenchFloats = 256 << 10 / 4

func BenchmarkRawPayloadEncode(b *testing.B) {
	v := randVec(rand.New(rand.NewSource(39)), rawBenchFloats)
	dst := make([]byte, 0, 4*len(v))
	b.SetBytes(int64(4 * len(v)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Identity().AppendEncode(dst[:0], v)
	}
}

func BenchmarkRawPayloadDecode(b *testing.B) {
	v := randVec(rand.New(rand.NewSource(40)), rawBenchFloats)
	enc := Identity().AppendEncode(nil, v)
	out := make([]float32, len(v))
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = Identity().AppendDecode(out[:0], enc, len(v)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRawPayloadSum(b *testing.B) {
	r := rand.New(rand.NewSource(41))
	enc := Identity().AppendEncode(nil, randVec(r, rawBenchFloats))
	sum := randVec(r, rawBenchFloats)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := AddRaw(sum, enc); err != nil {
			b.Fatal(err)
		}
	}
}
