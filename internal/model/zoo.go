package model

// This file contains the concrete model tables. Parameter counts follow the
// published architectures; compute weights approximate the per-layer FLOPs
// distribution (what matters is that convolutional stacks dominate compute
// while fully-connected / embedding layers dominate communication — the
// skew that makes scheduling matter).

// VGG16 returns the 16-layer VGG configuration D (Simonyan & Zisserman,
// 2014): ~138.3 M parameters (~553 MB fp32), dominated by the 411 MB fc6
// weight — the paper's example of a single tensor "over 400MB".
//
// Calibration: ~230 images/s per V100 at batch 32.
func VGG16() *Model {
	var b layerBuilder
	// name, compute weight (≈GFLOPs at 224x224), conv weight params, bias.
	conv := func(name string, gflops float64, k, cin, cout int64) {
		b.add(name, gflops, p("weight", k*k*cin*cout), p("bias", cout))
	}
	conv("conv1_1", 0.17, 3, 3, 64)
	conv("conv1_2", 3.70, 3, 64, 64)
	conv("conv2_1", 1.85, 3, 64, 128)
	conv("conv2_2", 3.70, 3, 128, 128)
	conv("conv3_1", 1.85, 3, 128, 256)
	conv("conv3_2", 3.70, 3, 256, 256)
	conv("conv3_3", 3.70, 3, 256, 256)
	conv("conv4_1", 1.85, 3, 256, 512)
	conv("conv4_2", 3.70, 3, 512, 512)
	conv("conv4_3", 3.70, 3, 512, 512)
	conv("conv5_1", 0.93, 3, 512, 512)
	conv("conv5_2", 0.93, 3, 512, 512)
	conv("conv5_3", 0.93, 3, 512, 512)
	b.add("fc6", 0.21, p("weight", 25088*4096), p("bias", 4096))
	b.add("fc7", 0.03, p("weight", 4096*4096), p("bias", 4096))
	b.add("fc8", 0.01, p("weight", 4096*1000), p("bias", 1000))
	return &Model{
		Name:        "VGG16",
		Layers:      b.layers,
		BatchPerGPU: 32,
		SampleUnit:  "images",
		PerGPUSpeed: 230,
		FPFraction:  1.0 / 3,
	}
}

// VGG19 returns VGG configuration E: ~143.7 M parameters. §6.2 reports a 60%
// speedup for it at 32 GPUs with MXNet PS RDMA.
func VGG19() *Model {
	var b layerBuilder
	conv := func(name string, gflops float64, k, cin, cout int64) {
		b.add(name, gflops, p("weight", k*k*cin*cout), p("bias", cout))
	}
	conv("conv1_1", 0.17, 3, 3, 64)
	conv("conv1_2", 3.70, 3, 64, 64)
	conv("conv2_1", 1.85, 3, 64, 128)
	conv("conv2_2", 3.70, 3, 128, 128)
	conv("conv3_1", 1.85, 3, 128, 256)
	conv("conv3_2", 3.70, 3, 256, 256)
	conv("conv3_3", 3.70, 3, 256, 256)
	conv("conv3_4", 3.70, 3, 256, 256)
	conv("conv4_1", 1.85, 3, 256, 512)
	conv("conv4_2", 3.70, 3, 512, 512)
	conv("conv4_3", 3.70, 3, 512, 512)
	conv("conv4_4", 3.70, 3, 512, 512)
	conv("conv5_1", 0.93, 3, 512, 512)
	conv("conv5_2", 0.93, 3, 512, 512)
	conv("conv5_3", 0.93, 3, 512, 512)
	conv("conv5_4", 0.93, 3, 512, 512)
	b.add("fc6", 0.21, p("weight", 25088*4096), p("bias", 4096))
	b.add("fc7", 0.03, p("weight", 4096*4096), p("bias", 4096))
	b.add("fc8", 0.01, p("weight", 4096*1000), p("bias", 1000))
	return &Model{
		Name:        "VGG19",
		Layers:      b.layers,
		BatchPerGPU: 32,
		SampleUnit:  "images",
		PerGPUSpeed: 195,
		FPFraction:  1.0 / 3,
	}
}

// AlexNet returns the 8-layer AlexNet (~61 M parameters, ~244 MB) whose
// compute is tiny relative to its communication volume. §6.2 reports a 96%
// speedup at 32 GPUs with MXNet PS RDMA.
func AlexNet() *Model {
	var b layerBuilder
	b.add("conv1", 0.21, p("weight", 11*11*3*96), p("bias", 96))
	b.add("conv2", 0.45, p("weight", 5*5*96*256), p("bias", 256))
	b.add("conv3", 0.30, p("weight", 3*3*256*384), p("bias", 384))
	b.add("conv4", 0.22, p("weight", 3*3*384*384), p("bias", 384))
	b.add("conv5", 0.15, p("weight", 3*3*384*256), p("bias", 256))
	b.add("fc6", 0.08, p("weight", 256*6*6*4096), p("bias", 4096))
	b.add("fc7", 0.03, p("weight", 4096*4096), p("bias", 4096))
	b.add("fc8", 0.01, p("weight", 4096*1000), p("bias", 1000))
	return &Model{
		Name:        "AlexNet",
		Layers:      b.layers,
		BatchPerGPU: 32,
		SampleUnit:  "images",
		PerGPUSpeed: 2500,
		FPFraction:  1.0 / 3,
	}
}

// ResNet50 returns the 50-layer residual network (~25.6 M parameters,
// ~102 MB). It is the paper's compute-bound model: high FLOPs, small
// gradients, hence small gains at 100 Gbps and larger gains below 25 Gbps.
//
// Each bottleneck block is one schedulable layer carrying its conv weights
// and batch-norm scale/shift tensors. Calibration: ~360 images/s per V100 at
// batch 32.
func ResNet50() *Model {
	var b layerBuilder

	// Stem: 7x7 conv, 64 channels, on 112x112 output.
	stemParams := int64(7 * 7 * 3 * 64)
	b.add("conv1", flopsWeight(112, 7, 3, 64), p("weight", stemParams), p("bn", 2*64))

	type stage struct {
		blocks  int
		mid     int64 // bottleneck width
		spatial int64 // output H (= W)
	}
	stages := []stage{{3, 64, 56}, {4, 128, 28}, {6, 256, 14}, {3, 512, 7}}
	in := int64(64)
	for si, st := range stages {
		out := st.mid * 4
		for bi := 0; bi < st.blocks; bi++ {
			name := blockName(si+2, bi)
			// 1x1 reduce, 3x3, 1x1 expand (+ downsample on first block).
			w1 := in * st.mid
			w2 := 9 * st.mid * st.mid
			w3 := st.mid * out
			bn := 2 * (st.mid + st.mid + out)
			weight := flopsWeight(st.spatial, 1, in, st.mid) +
				flopsWeight(st.spatial, 3, st.mid, st.mid) +
				flopsWeight(st.spatial, 1, st.mid, out)
			tensors := []namedParams{
				p("conv1x1a", w1), p("conv3x3", w2), p("conv1x1b", w3), p("bn", bn),
			}
			if bi == 0 {
				tensors = append(tensors, p("downsample", in*out), p("bn_ds", 2*out))
				weight += flopsWeight(st.spatial, 1, in, out)
			}
			b.add(name, weight, tensors...)
			in = out
		}
	}
	b.add("fc", flopsWeight(1, 1, 2048, 1000), p("weight", 2048*1000), p("bias", 1000))
	return &Model{
		Name:        "ResNet50",
		Layers:      b.layers,
		BatchPerGPU: 32,
		SampleUnit:  "images",
		PerGPUSpeed: 360,
		FPFraction:  1.0 / 3,
	}
}

// flopsWeight approximates the MAC count of a kxk convolution producing an
// out-channel map of spatial x spatial, in arbitrary units used only as a
// relative compute weight.
func flopsWeight(spatial, k, cin, cout int64) float64 {
	return float64(spatial*spatial*k*k*cin*cout) / 1e9
}

func blockName(stage, block int) string {
	return "res" + string(rune('0'+stage)) + string(rune('a'+block))
}

// Transformer returns the big Transformer (Vaswani et al., "big"
// configuration: d=1024, ff=4096, 6+6 layers) with a 37 k shared
// vocabulary: ~214 M parameters (~856 MB). The shared embedding is a single
// ~151 MB tensor at layer 0 — the first tensor the next iteration's forward
// pass needs, the last one backward propagation produces, and the largest
// key a naive round-robin PS assignment can misplace. That combination
// drives the paper's PS load-balancing observation (§6.2, up to 171%
// speedup).
//
// Calibration: ~3500 tokens/s per V100 at 512 tokens per GPU.
func Transformer() *Model {
	const (
		d     = 1024
		ff    = 4096
		vocab = 37000
	)
	var b layerBuilder
	// Embedding is tied input/output; it is both the first tensor the next
	// iteration's forward pass needs and the largest tensor in the model.
	b.add("embedding", 0.6, p("weight", vocab*d))
	for i := 0; i < 6; i++ {
		b.add("encoder"+string(rune('1'+i)), 1.0,
			p("attn_qkvo", 4*d*d),
			p("ffn", 2*d*ff),
			p("norms", 4*d),
		)
	}
	for i := 0; i < 6; i++ {
		b.add("decoder"+string(rune('1'+i)), 1.4,
			p("self_attn", 4*d*d),
			p("cross_attn", 4*d*d),
			p("ffn", 2*d*ff),
			p("norms", 6*d),
		)
	}
	return &Model{
		Name:        "Transformer",
		Layers:      b.layers,
		BatchPerGPU: 512,
		SampleUnit:  "tokens",
		PerGPUSpeed: 3500,
		FPFraction:  1.0 / 3,
	}
}

// Synthetic builds a uniform chain model for tests and microbenchmarks:
// layers of equal byte size and equal compute weight.
func Synthetic(name string, layers int, bytesPerLayer int64, iterCompute float64) *Model {
	var b layerBuilder
	for i := 0; i < layers; i++ {
		b.add("layer"+itoa(i), 1, namedParams{"weight", bytesPerLayer / BytesPerParam})
	}
	// Choose calibration so iterComputeTime() == iterCompute with batch 1.
	return &Model{
		Name:        name,
		Layers:      b.layers,
		BatchPerGPU: 1,
		SampleUnit:  "samples",
		PerGPUSpeed: 1 / iterCompute,
		FPFraction:  1.0 / 3,
	}
}

// Contrived builds the three-layer example of Figure 2: layers of very
// different sizes with FP and BP consuming different time, where a better
// schedule than FIFO yields ~44% speedup. Layer 0 is small and cheap, layer
// 1 is large, layer 2 is medium — so FIFO sends layer 2 then layer 1 first
// and the critical pull of layer 0 is delayed behind them.
func Contrived() *Model {
	var b layerBuilder
	const mb = 1 << 20
	b.add("l0", 1.0, namedParams{"weight", 2 * mb / BytesPerParam})
	b.add("l1", 1.5, namedParams{"weight", 24 * mb / BytesPerParam})
	b.add("l2", 0.8, namedParams{"weight", 10 * mb / BytesPerParam})
	return &Model{
		Name:        "Contrived",
		Layers:      b.layers,
		BatchPerGPU: 1,
		SampleUnit:  "samples",
		PerGPUSpeed: 1 / 0.030, // 30 ms compute per iteration
		FPFraction:  0.4,
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
