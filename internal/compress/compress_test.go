package compress

import (
	"testing"

	"bytescheduler/internal/model"
)

func TestRatios(t *testing.T) {
	if NewFP16().Ratio() != 0.5 {
		t.Fatal("fp16 ratio")
	}
	if NewInt8().Ratio() != 0.25 {
		t.Fatal("int8 ratio")
	}
	if NewTopK(0.01).Ratio() != 0.02 {
		t.Fatal("topk ratio must include index overhead")
	}
	if (Compressor{}).Ratio() != 1 {
		t.Fatal("none ratio")
	}
}

func TestValidate(t *testing.T) {
	for _, c := range []Compressor{NewFP16(), NewInt8(), NewTopK(0.01), {}} {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", c.Codec.Name(), err)
		}
	}
	counted, err := TopKCodecCount(8)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Compressor{
		NewTopK(0),
		NewTopK(1.5),
		{Codec: counted, CodecBytesPerSec: 1}, // a pinned count has no size ratio
		{Codec: FP16Codec()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad compressor %d accepted", i)
		}
	}
}

func TestCodecCost(t *testing.T) {
	if (Compressor{}).CodecSecPerByte() != 0 {
		t.Fatal("identity codec must be free")
	}
	if NewFP16().CodecSecPerByte() >= NewTopK(0.01).CodecSecPerByte() {
		t.Fatal("top-k selection must cost more than a cast")
	}
}

func TestApplyScalesSizes(t *testing.T) {
	m := model.VGG16()
	half, err := NewFP16().Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	if half.TotalBytes() != m.TotalBytes()/2 {
		t.Fatalf("fp16 total = %d, want %d", half.TotalBytes(), m.TotalBytes()/2)
	}
	// Original untouched.
	if m.TotalBytes() != model.VGG16().TotalBytes() {
		t.Fatal("Apply mutated the source model")
	}
	// Structure preserved.
	if half.NumLayers() != m.NumLayers() || half.PerGPUSpeed != m.PerGPUSpeed {
		t.Fatal("Apply changed non-size fields")
	}
	if err := half.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyIdentity(t *testing.T) {
	m := model.VGG16()
	got, err := (Compressor{}).Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatal("identity Apply should return the same model")
	}
}

func TestApplyFloorsTinyTensors(t *testing.T) {
	m := model.Synthetic("s", 2, 40, 0.01) // 40-byte layers
	sparse, err := NewTopK(0.001).Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range sparse.Layers {
		for _, tt := range l.Tensors {
			if tt.Bytes < 4 {
				t.Fatalf("tensor shrank below floor: %d", tt.Bytes)
			}
		}
	}
}

// Regression: Apply used to panic on an invalid configuration; a bad CLI
// spec must surface as an error instead of crashing the process.
func TestApplyInvalidConfigReturnsError(t *testing.T) {
	got, err := NewTopK(0).Apply(model.VGG16())
	if err == nil {
		t.Fatal("invalid compressor accepted by Apply")
	}
	if got != nil {
		t.Fatal("Apply returned a model alongside an error")
	}
}

// Regression: a keep ratio in (0.5, 1] used to pass Validate even though
// the value+index wire cost (2*keep) exceeds the uncompressed size.
func TestTopKRejectsWireInflation(t *testing.T) {
	if err := NewTopK(0.6).Validate(); err == nil {
		t.Fatal("keep ratio 0.6 accepted: Ratio() = 1.2 would inflate wire traffic")
	}
	if err := NewTopK(0.5).Validate(); err != nil {
		t.Fatalf("keep ratio 0.5 (break-even) rejected: %v", err)
	}
}

// Regression: compressed sizes used to truncate to arbitrary byte counts;
// they must stay fp32-element-aligned so Partition tiling and the netar
// float32 framing agree.
func TestApplyElementAlignedSizes(t *testing.T) {
	// 1000B * 0.25 = 250B: not a multiple of 4 under plain truncation.
	m := model.Synthetic("s", 3, 1000, 0.01)
	q, err := NewInt8().Apply(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range q.Layers {
		for _, tt := range l.Tensors {
			if tt.Bytes%4 != 0 {
				t.Fatalf("tensor %q: compressed size %dB not element-aligned", tt.Name, tt.Bytes)
			}
			if tt.Bytes < 4 {
				t.Fatalf("tensor %q: compressed size %dB below one element", tt.Name, tt.Bytes)
			}
		}
	}
}

// Each compressor names its scheme in the -codec vocabulary, so the name
// parses back to the codec the compressor holds.
func TestMethodString(t *testing.T) {
	for want, c := range map[string]Compressor{"none": {}, "fp16": NewFP16(), "int8": NewInt8(), "topk:0.01": NewTopK(0.01)} {
		if got := c.Codec.Name(); got != want {
			t.Errorf("%s: name %q", want, got)
		}
		back, err := ParseCodec(c.Codec.Name())
		if err != nil || back != c.Codec {
			t.Errorf("%s: parses back to %v, %v", want, back.Name(), err)
		}
	}
}
