package compress

// The identity codec's payload is the fp32 vector little-endian, which is
// the vector's own memory on every host this repository runs on (amd64,
// arm64): encode is one append of the vector's bytes, decode one copy into
// the destination's, and a receiver sums straight from the payload it read.
// A big-endian host takes the binary.LittleEndian loops instead, so the
// wire bytes are the same everywhere.
//
// This file is the only place outside tests that imports unsafe (CI
// enforces it): the byte view of a []float32 and the []float32 view of a
// 4-byte-aligned payload.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// hostLE reports whether a float32's memory is its little-endian encoding.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes is v's memory as bytes.
func floatBytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// appendRaw appends v as an identity payload.
func appendRaw(dst []byte, v []float32) []byte {
	if hostLE {
		return append(dst, floatBytes(v)...)
	}
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

// decodeRaw appends the n values of an identity payload to dst.
func decodeRaw(dst []float32, payload []byte, n int) ([]float32, error) {
	if len(payload) != 4*n {
		return dst, fmt.Errorf("compress: fp32 payload %dB for %d elements", len(payload), n)
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	if out := dst[base:]; hostLE {
		copy(floatBytes(out), payload)
	} else {
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
		}
	}
	return dst, nil
}

// AddRaw adds the values of an identity (raw fp32) payload into sum, one
// per element; the payload must hold exactly len(sum) values. An aligned
// payload is read in place as []float32; a misaligned one, or any payload
// on a big-endian host, value by value.
func AddRaw(sum []float32, payload []byte) error {
	if len(payload) != 4*len(sum) {
		return fmt.Errorf("compress: fp32 payload %dB for %d elements", len(payload), len(sum))
	}
	if p := unsafe.SliceData(payload); hostLE && uintptr(unsafe.Pointer(p))%4 == 0 {
		vals := unsafe.Slice((*float32)(unsafe.Pointer(p)), len(sum))
		sum = sum[:len(vals)] // drops the bounds check below
		for i, v := range vals {
			sum[i] += v
		}
		return nil
	}
	for i := range sum {
		sum[i] += math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return nil
}
