package compress

// The identity codec's payload is the fp32 vector little-endian, which is
// the vector's own memory on every host this repository runs on (amd64,
// arm64): a transport sends it from, reads it into and sums straight out of
// the vector (RawBytes, RawFloats, AddRaw), and encode and decode are one
// copy. A big-endian host takes the binary.LittleEndian loops instead, so
// the wire bytes are the same everywhere. This file is the only place
// outside tests that imports unsafe (CI enforces it): those two views.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// hostLE reports whether a float32's memory is its little-endian encoding.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// RawBytes returns v's memory as bytes, which is its identity payload to
// send or fill in place unless ok is false: on a big-endian host it is not.
func RawBytes(v []float32) (b []byte, ok bool) {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v)), hostLE
}

// RawFloats is RawBytes's inverse: an identity payload's memory as its
// values, or false on a big-endian host or a ragged or misaligned payload.
func RawFloats(payload []byte) ([]float32, bool) {
	p := unsafe.SliceData(payload)
	if !hostLE || len(payload)%4 != 0 || uintptr(unsafe.Pointer(p))%4 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(p)), len(payload)/4), true
}

// appendRaw appends v as an identity payload.
func appendRaw(dst []byte, v []float32) []byte {
	if raw, ok := RawBytes(v); ok {
		return append(dst, raw...)
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
	if raw, ok := RawBytes(dst[base:]); ok {
		copy(raw, payload)
	} else {
		for i := base; i < len(dst); i++ {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*(i-base):]))
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
	if vals, ok := RawFloats(payload); ok {
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
