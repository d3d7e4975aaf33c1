package model

import (
	"math"
	"testing"

	"bytescheduler/internal/tensor"
)

func TestAllModelsValidate(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestByNameCaseInsensitive(t *testing.T) {
	for _, name := range []string{"VGG16", "vgg16", "Vgg16"} {
		m, err := ByName(name)
		if err != nil || m.Name != "VGG16" {
			t.Fatalf("ByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
}

func TestVGG16Facts(t *testing.T) {
	m := VGG16()
	if got := m.NumLayers(); got != 16 {
		t.Fatalf("VGG16 layers = %d, want 16", got)
	}
	params := m.Params()
	// Published: ~138.3M parameters.
	if params < 137e6 || params > 140e6 {
		t.Fatalf("VGG16 params = %d, want ~138.3M", params)
	}
	// The paper: smallest tensor 256B, largest over 400MB.
	largest := largestTensor(m)
	if largest.Bytes < 400e6 {
		t.Fatalf("VGG16 largest tensor = %d bytes, want >400MB", largest.Bytes)
	}
	if largest.Name != "weight" || m.Layers[largest.Layer].Name != "fc6" {
		t.Fatalf("VGG16 largest tensor should be fc6 weight, got %s in %s", largest, m.Layers[largest.Layer].Name)
	}
	smallest := smallestTensor(m)
	if smallest.Bytes != 64*BytesPerParam {
		t.Fatalf("VGG16 smallest tensor = %d bytes, want 256", smallest.Bytes)
	}
}

func TestResNet50Facts(t *testing.T) {
	m := ResNet50()
	params := m.Params()
	// Published: ~25.6M parameters.
	if params < 25e6 || params > 26.5e6 {
		t.Fatalf("ResNet50 params = %d, want ~25.6M", params)
	}
	// 1 stem + 16 blocks + 1 fc.
	if got := m.NumLayers(); got != 18 {
		t.Fatalf("ResNet50 layers = %d, want 18", got)
	}
	// Compute-bound: bytes/computeTime ratio far below VGG16's.
	vgg := VGG16()
	rnRatio := float64(m.TotalBytes()) / m.iterComputeTime()
	vggRatio := float64(vgg.TotalBytes()) / vgg.iterComputeTime()
	if rnRatio > vggRatio/2 {
		t.Fatalf("ResNet50 comm/comp ratio %.3g not far below VGG16 %.3g", rnRatio, vggRatio)
	}
}

func TestTransformerFacts(t *testing.T) {
	m := Transformer()
	params := m.Params()
	// Transformer big w/ 37k shared vocab: ~214M parameters.
	if params < 205e6 || params > 222e6 {
		t.Fatalf("Transformer params = %d, want ~214M", params)
	}
	if m.NumLayers() != 13 {
		t.Fatalf("Transformer layers = %d, want 13", m.NumLayers())
	}
	// The embedding must be both layer 0 and the single largest tensor
	// (the load imbalance driver).
	largest := largestTensor(m)
	if largest.Layer != 0 {
		t.Fatalf("Transformer largest tensor in layer %d, want 0", largest.Layer)
	}
	if frac := float64(largest.Bytes) / float64(m.TotalBytes()); frac < 0.15 {
		t.Fatalf("embedding fraction %.2f, want >0.15 (size skew)", frac)
	}
}

func TestAlexNetVGG19Facts(t *testing.T) {
	a := AlexNet()
	if p := a.Params(); p < 58e6 || p > 64e6 {
		t.Fatalf("AlexNet params = %d, want ~61M", p)
	}
	v := VGG19()
	if p := v.Params(); p < 142e6 || p > 146e6 {
		t.Fatalf("VGG19 params = %d, want ~143.7M", p)
	}
	if v.NumLayers() != 19 {
		t.Fatalf("VGG19 layers = %d, want 19", v.NumLayers())
	}
}

func TestComputeTimeDistribution(t *testing.T) {
	m := VGG16()
	fp := m.FPTimes()
	bp := m.BPTimes()
	if len(fp) != m.NumLayers() || len(bp) != m.NumLayers() {
		t.Fatal("per-layer time slices wrong length")
	}
	var fpSum, bpSum float64
	for i := range fp {
		if fp[i] < 0 || bp[i] < 0 {
			t.Fatalf("negative layer time at %d", i)
		}
		fpSum += fp[i]
		bpSum += bp[i]
	}
	iter := m.iterComputeTime()
	if math.Abs(fpSum+bpSum-iter) > 1e-9 {
		t.Fatalf("fp+bp = %v, want %v", fpSum+bpSum, iter)
	}
	if math.Abs(fpSum-iter*m.FPFraction) > 1e-9 {
		t.Fatalf("fp share %v, want %v", fpSum/iter, m.FPFraction)
	}
	// VGG16 at 230 img/s, batch 32: ~139ms.
	if iter < 0.10 || iter > 0.20 {
		t.Fatalf("VGG16 iteration compute %.3fs out of plausible range", iter)
	}
}

func TestSynthetic(t *testing.T) {
	m := Synthetic("syn", 5, 4096, 0.01)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumLayers() != 5 {
		t.Fatalf("layers = %d", m.NumLayers())
	}
	if m.TotalBytes() != 5*4096 {
		t.Fatalf("TotalBytes = %d, want %d", m.TotalBytes(), 5*4096)
	}
	if math.Abs(m.iterComputeTime()-0.01) > 1e-12 {
		t.Fatalf("iterComputeTime = %v, want 0.01", m.iterComputeTime())
	}
}

func TestContrived(t *testing.T) {
	m := Contrived()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumLayers() != 3 {
		t.Fatalf("layers = %d, want 3", m.NumLayers())
	}
	// Layer 1 must dominate so FIFO (which sends it before layer 0) hurts.
	if m.Layers[1].Bytes() <= m.Layers[0].Bytes() || m.Layers[1].Bytes() <= m.Layers[2].Bytes() {
		t.Fatal("contrived model must have a dominant middle layer")
	}
}

func TestBERTBaseFacts(t *testing.T) {
	m := BERTBase()
	if p := m.Params(); p < 107e6 || p > 113e6 {
		t.Fatalf("BERT-base params = %d, want ~110M", p)
	}
	if m.NumLayers() != 14 { // embeddings + 12 encoders + pooler
		t.Fatalf("BERT-base layers = %d, want 14", m.NumLayers())
	}
	if largestTensor(m).Layer != 0 {
		t.Fatal("BERT-base word embedding must dominate at layer 0")
	}
}

func TestInceptionV3Facts(t *testing.T) {
	m := InceptionV3()
	if p := m.Params(); p < 21e6 || p > 26e6 {
		t.Fatalf("InceptionV3 params = %d, want ~23.9M", p)
	}
	// Compute-bound like ResNet50: low bytes per compute second.
	vgg := VGG16()
	if float64(m.TotalBytes())/m.iterComputeTime() > float64(vgg.TotalBytes())/vgg.iterComputeTime()/2 {
		t.Fatal("InceptionV3 should be clearly more compute-bound than VGG16")
	}
}

func TestGNMTFacts(t *testing.T) {
	m := GNMT()
	if p := m.Params(); p < 250e6 || p > 300e6 {
		t.Fatalf("GNMT params = %d, want ~275M", p)
	}
	// Three giant tensors: src embedding (layer 0), tgt embedding, and
	// softmax (last layer) — skew at both ends of the priority order.
	var big int
	for _, l := range m.Layers {
		for _, tt := range l.Tensors {
			if tt.Bytes > 100<<20 {
				big++
			}
		}
	}
	if big != 3 {
		t.Fatalf("GNMT has %d >100MB tensors, want 3", big)
	}
	if m.Layers[len(m.Layers)-1].Name != "softmax" {
		t.Fatal("softmax must be the last layer")
	}
}

func TestLayerBytes(t *testing.T) {
	m := VGG16()
	var sum int64
	for _, l := range m.Layers {
		sum += l.Bytes()
	}
	if sum != m.TotalBytes() {
		t.Fatalf("layer sum %d != total %d", sum, m.TotalBytes())
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	good := Synthetic("s", 2, 1024, 0.01)
	cases := map[string]func(*Model){
		"empty name":   func(m *Model) { m.Name = "" },
		"no layers":    func(m *Model) { m.Layers = nil },
		"bad batch":    func(m *Model) { m.BatchPerGPU = 0 },
		"bad speed":    func(m *Model) { m.PerGPUSpeed = 0 },
		"bad fpfrac":   func(m *Model) { m.FPFraction = 1.5 },
		"bad index":    func(m *Model) { m.Layers[1].Index = 5 },
		"no tensors":   func(m *Model) { m.Layers[0].Tensors = nil },
		"neg weight":   func(m *Model) { m.Layers[0].ComputeWeight = -1 },
		"tensor layer": func(m *Model) { m.Layers[0].Tensors[0].Layer = 9 },
		"tensor size":  func(m *Model) { m.Layers[0].Tensors[0].Bytes = 0 },
	}
	for name, mutate := range cases {
		m := *good
		m.Layers = append([]Layer(nil), good.Layers...)
		for i := range m.Layers {
			m.Layers[i].Tensors = append(m.Layers[i].Tensors[:0:0], good.Layers[i].Tensors...)
		}
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken model", name)
		}
	}
}

// largestTensor returns the single largest tensor in m.
func largestTensor(m *Model) tensor.Tensor {
	var best tensor.Tensor
	for _, l := range m.Layers {
		for _, t := range l.Tensors {
			if t.Bytes > best.Bytes {
				best = t
			}
		}
	}
	return best
}

// smallestTensor returns the single smallest non-empty tensor in m.
func smallestTensor(m *Model) tensor.Tensor {
	best := tensor.Tensor{Bytes: 1<<63 - 1}
	for _, l := range m.Layers {
		for _, t := range l.Tensors {
			if t.Bytes > 0 && t.Bytes < best.Bytes {
				best = t
			}
		}
	}
	return best
}
