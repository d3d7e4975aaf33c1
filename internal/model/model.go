// Package model provides the DNN model zoo used by the paper's evaluation:
// VGG16, ResNet50 and Transformer as the benchmark trio, plus AlexNet and
// VGG19 (mentioned in §6.2) and synthetic generators.
//
// Each model is a chain of layers (assumption 1 of Theorem 1). A layer holds
// one or more tensors (the paper: "each layer includes one or multiple
// tensors") and a relative compute weight used to distribute the model's
// calibrated per-iteration compute time across forward and backward ops.
//
// Tensor sizes are derived from the public architectures (fp32, 4 bytes per
// parameter); per-GPU training speeds are calibrated to published V100
// numbers. Absolute accuracy is not the goal — the scheduling results depend
// on the DAG shape, the per-layer size distribution (e.g. VGG16's ~411 MB
// fc6), and the compute:communication ratio, which these tables reproduce.
package model

import (
	"fmt"
	"sort"

	"bytescheduler/internal/tensor"
)

// BytesPerParam is the size of one fp32 model parameter.
const BytesPerParam = 4

// Layer is one schedulable DNN layer.
type Layer struct {
	// Index is the 0-based position from the model input.
	Index int
	// Name is a human-readable layer name, e.g. "conv4_2".
	Name string
	// Tensors are the communication units of this layer (weights, biases,
	// batch-norm scales, ...). All tensors of a layer share its priority.
	Tensors []tensor.Tensor
	// ComputeWeight is the layer's relative share of the model's compute
	// time (roughly proportional to FLOPs). The same distribution is used
	// for forward and backward.
	ComputeWeight float64
}

// Bytes returns the total communication volume of the layer.
func (l Layer) Bytes() int64 { return tensor.TotalBytes(l.Tensors) }

// Model is a layered DNN with calibrated compute speed.
type Model struct {
	// Name identifies the model, e.g. "VGG16".
	Name string
	// Layers are ordered from input to output.
	Layers []Layer
	// BatchPerGPU is the per-GPU mini-batch size in samples (images or
	// tokens), matching the paper's defaults (32/32/512).
	BatchPerGPU int
	// SampleUnit is the throughput unit: "images" or "tokens".
	SampleUnit string
	// PerGPUSpeed is the computation-only training speed of one GPU in
	// samples per second (the linear-scaling reference per GPU).
	PerGPUSpeed float64
	// FPFraction is the share of iteration compute spent in forward
	// propagation; backward takes the rest. Typically ~1/3.
	FPFraction float64
}

// NumLayers returns the number of layers.
func (m *Model) NumLayers() int { return len(m.Layers) }

// TotalBytes returns the full model/gradient size in bytes.
func (m *Model) TotalBytes() int64 {
	var sum int64
	for _, l := range m.Layers {
		sum += l.Bytes()
	}
	return sum
}

// Params returns the total parameter count.
func (m *Model) Params() int64 { return m.TotalBytes() / BytesPerParam }

// iterComputeTime returns the computation-only time of one iteration on one
// GPU, in seconds.
func (m *Model) iterComputeTime() float64 {
	return float64(m.BatchPerGPU) / m.PerGPUSpeed
}

// computeShares returns each layer's normalized compute share.
func (m *Model) computeShares() []float64 {
	shares := make([]float64, len(m.Layers))
	var sum float64
	for _, l := range m.Layers {
		sum += l.ComputeWeight
	}
	if sum <= 0 {
		// Degenerate: spread evenly.
		for i := range shares {
			shares[i] = 1 / float64(len(shares))
		}
		return shares
	}
	for i, l := range m.Layers {
		shares[i] = l.ComputeWeight / sum
	}
	return shares
}

// FPTimes returns the forward-propagation duration of each layer, in
// seconds, for one iteration on one GPU.
func (m *Model) FPTimes() []float64 {
	total := m.iterComputeTime() * m.FPFraction
	shares := m.computeShares()
	out := make([]float64, len(shares))
	for i, s := range shares {
		out[i] = s * total
	}
	return out
}

// BPTimes returns the backward-propagation duration of each layer, in
// seconds, for one iteration on one GPU.
func (m *Model) BPTimes() []float64 {
	total := m.iterComputeTime() * (1 - m.FPFraction)
	shares := m.computeShares()
	out := make([]float64, len(shares))
	for i, s := range shares {
		out[i] = s * total
	}
	return out
}

// Validate checks structural invariants: contiguous layer indices, positive
// sizes and weights, calibration fields set.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("model: empty name")
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("model %s: no layers", m.Name)
	}
	if m.BatchPerGPU <= 0 || m.PerGPUSpeed <= 0 {
		return fmt.Errorf("model %s: missing calibration (batch=%d speed=%v)", m.Name, m.BatchPerGPU, m.PerGPUSpeed)
	}
	if m.FPFraction <= 0 || m.FPFraction >= 1 {
		return fmt.Errorf("model %s: FPFraction %v out of (0,1)", m.Name, m.FPFraction)
	}
	for i, l := range m.Layers {
		if l.Index != i {
			return fmt.Errorf("model %s: layer %d has index %d", m.Name, i, l.Index)
		}
		if len(l.Tensors) == 0 {
			return fmt.Errorf("model %s: layer %d (%s) has no tensors", m.Name, i, l.Name)
		}
		if l.ComputeWeight < 0 {
			return fmt.Errorf("model %s: layer %d negative compute weight", m.Name, i)
		}
		for _, t := range l.Tensors {
			if t.Layer != i {
				return fmt.Errorf("model %s: tensor %s in layer %d claims layer %d", m.Name, t.Name, i, t.Layer)
			}
			if t.Bytes <= 0 {
				return fmt.Errorf("model %s: tensor %s non-positive size", m.Name, t)
			}
		}
	}
	return nil
}

// layerBuilder accumulates layers with automatic indexing.
type layerBuilder struct {
	layers []Layer
}

// add appends a layer whose tensors are given as name→param-count pairs.
func (b *layerBuilder) add(name string, weight float64, tensors ...namedParams) {
	idx := len(b.layers)
	l := Layer{Index: idx, Name: name, ComputeWeight: weight}
	for _, np := range tensors {
		l.Tensors = append(l.Tensors, tensor.Tensor{
			Layer: idx,
			Name:  np.name,
			Bytes: np.params * BytesPerParam,
		})
	}
	b.layers = append(b.layers, l)
}

type namedParams struct {
	name   string
	params int64
}

func p(name string, params int64) namedParams { return namedParams{name, params} }

// registry maps canonical lower-case names to constructors.
var registry = map[string]func() *Model{
	"vgg16":       VGG16,
	"vgg19":       VGG19,
	"resnet50":    ResNet50,
	"transformer": Transformer,
	"alexnet":     AlexNet,
	"bert-base":   BERTBase,
	"inceptionv3": InceptionV3,
	"gnmt":        GNMT,
}

// ByName returns a fresh instance of the named model. Recognized names (case
// sensitive as listed): VGG16, VGG19, ResNet50, Transformer, AlexNet.
func ByName(name string) (*Model, error) {
	ctor, ok := registry[normalize(name)]
	if !ok {
		return nil, fmt.Errorf("model: unknown model %q (have %v)", name, Names())
	}
	return ctor(), nil
}

// Names returns the registered model names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func normalize(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}
