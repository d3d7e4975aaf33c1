// Package compress models gradient compression — the related-work direction
// the paper calls "orthogonal and complementary to ByteScheduler" (§8:
// quantization such as QSGD/TernGrad, sparse synchronization). Compression
// shrinks the bytes every scheduler decision moves and adds a codec cost on
// the gradient-ready path; it does not change the DAG, so scheduling
// composes with it.
//
// Accuracy effects of lossy compression are out of scope (the simulator
// does not train); only the systems costs are modeled.
package compress

import (
	"fmt"

	"bytescheduler/internal/model"
	"bytescheduler/internal/tensor"
)

// Compressor describes one compression configuration: the wire codec the
// live transports encode with, plus what it costs on the GPU.
type Compressor struct {
	// Codec selects the scheme (the identity codec compresses nothing).
	Codec Codec
	// CodecBytesPerSec is the encode+decode throughput per original byte
	// (GPU-side casting/quantization/selection).
	CodecBytesPerSec float64
}

// NewFP16 returns the half-precision compressor: 2x smaller, very cheap
// codec.
func NewFP16() Compressor {
	return Compressor{Codec: FP16Codec(), CodecBytesPerSec: 200e9}
}

// NewInt8 returns the 8-bit quantization compressor (QSGD-style
// per-tensor scale): 4x smaller, moderate codec cost.
func NewInt8() Compressor {
	return Compressor{Codec: Int8Codec(), CodecBytesPerSec: 80e9}
}

// NewTopK returns a sparse compressor keeping the given fraction of
// elements (e.g. 0.01 for top-1%) with their indices: expensive selection.
// A keep ratio TopKCodec refuses is reported by Validate.
func NewTopK(keep float64) Compressor {
	return Compressor{Codec: Codec{id: CodecTopK, keep: keep}, CodecBytesPerSec: 25e9}
}

// Validate reports configuration errors.
func (c Compressor) Validate() error {
	if c.Codec.IsIdentity() {
		return nil
	}
	if c.Codec.id == CodecTopK {
		// The one top-k range check; a count-pinned codec (keep 0) has no
		// size ratio and fails it too.
		if _, err := TopKCodec(c.Codec.keep); err != nil {
			return err
		}
	}
	if c.CodecBytesPerSec <= 0 {
		return fmt.Errorf("compress: non-positive codec throughput")
	}
	return nil
}

// Ratio returns the compressed-size multiplier.
func (c Compressor) Ratio() float64 {
	switch c.Codec.id {
	case CodecFP16:
		return 0.5
	case CodecInt8:
		return 0.25
	case CodecTopK:
		// Each kept fp32 value carries a 4-byte index.
		return 2 * c.Codec.keep
	default:
		return 1
	}
}

// CodecSecPerByte returns the encode+decode latency per original gradient
// byte.
func (c Compressor) CodecSecPerByte() float64 {
	if c.Codec.IsIdentity() {
		return 0
	}
	return 1 / c.CodecBytesPerSec
}

// Apply returns a derived model whose tensors carry the compressed sizes —
// what the communication substrate actually moves. Layer structure, compute
// calibration and priorities are unchanged. An invalid configuration is
// reported as an error (never a panic), so a bad CLI spec fails cleanly.
//
// Compressed sizes are rounded up to the 4-byte fp32 element size and
// floored at one element: tensor.Partition tiles in whole bytes and the
// netar float32 framing rejects non-multiple-of-4 payloads, so an
// arbitrary truncated byte count would desynchronize the two.
func (c Compressor) Apply(m *model.Model) (*model.Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ratio := c.Ratio()
	if ratio == 1 {
		return m, nil
	}
	out := *m
	out.Layers = make([]model.Layer, len(m.Layers))
	for i, l := range m.Layers {
		nl := l
		nl.Tensors = make([]tensor.Tensor, len(l.Tensors))
		for j, t := range l.Tensors {
			nt := t
			nt.Bytes = compressedSize(t.Bytes, ratio)
			nl.Tensors[j] = nt
		}
		out.Layers[i] = nl
	}
	return &out, nil
}

// compressedSize scales b by ratio, rounding up to element (4-byte)
// alignment with a one-element floor.
func compressedSize(b int64, ratio float64) int64 {
	n := int64(float64(b) * ratio)
	if rem := n % 4; rem != 0 {
		n += 4 - rem
	}
	if n < 4 {
		n = 4
	}
	return n
}
