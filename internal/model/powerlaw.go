package model

import (
	"math"
	"math/rand"
)

// PowerLaw builds a synthetic chain whose tensor sizes follow a Zipf-like
// power law: the r-th largest tensor has maxBytes/r^alpha bytes (rounded
// down to whole fp32 parameters, at least one). Real models skew this way —
// a Transformer's embedding or VGG16's fc6 dwarfs everything else — and the
// skew is what makes PS placement matter: with near-uniform sizes every
// strategy balances, with a power law the server that draws the head tensor
// bounds cluster goodput (§6.2).
//
// The sizes are deterministically shuffled across layer positions with the
// given seed. The shuffle is load-bearing for placement experiments:
// round-robin over a size-sorted chain interleaves large and small tensors
// and accidentally self-balances, hiding exactly the effect under study.
//
// Callers probing placement should keep maxBytes below the substrate's
// big-array striping bound (the runner stripes tensors over 32 MB across
// all servers, which also masks placement skew).
//
// Like Synthetic, calibration is chosen so iterComputeTime() == iterCompute
// at batch 1; compute weight is uniform across layers.
func PowerLaw(name string, layers int, maxBytes int64, alpha float64, seed int64, iterCompute float64) *Model {
	if layers <= 0 {
		layers = 1
	}
	params := make([]int64, layers)
	for r := range params {
		n := int64(float64(maxBytes)/math.Pow(float64(r+1), alpha)) / BytesPerParam
		if n < 1 {
			n = 1
		}
		params[r] = n
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(params), func(i, j int) { params[i], params[j] = params[j], params[i] })
	var b layerBuilder
	for i, n := range params {
		b.add("pl"+itoa(i), 1, p("weight", n))
	}
	return &Model{
		Name:        name,
		Layers:      b.layers,
		BatchPerGPU: 1,
		SampleUnit:  "samples",
		PerGPUSpeed: 1 / iterCompute,
		FPFraction:  1.0 / 3,
	}
}

// Blocked builds a transformer-like periodic chain: blocks of layersPerBlock
// layers where the first layer of block b carries one dominant tensor of
// headBytes/(b+1)^alpha bytes (a power law across blocks) and the remaining
// layers carry lightBytes tensors (layer norms, biases). Real architectures
// repeat a block template, so their size sequence is periodic — and a
// periodic sequence is the adversarial input for round-robin placement: when
// the block period shares a factor with the server count, every block's
// dominant tensor aliases onto the same few servers, no matter how many
// servers are added. Size-aware placement is immune because it looks at
// bytes, not positions. This is the §6.2 load-imbalance mechanism isolated
// from scheduling. Calibration matches Synthetic: iterComputeTime() ==
// iterCompute at batch 1, uniform compute weights.
func Blocked(name string, blocks, layersPerBlock int, headBytes int64, alpha float64, lightBytes int64, iterCompute float64) *Model {
	if blocks <= 0 {
		blocks = 1
	}
	if layersPerBlock <= 0 {
		layersPerBlock = 1
	}
	var b layerBuilder
	for blk := 0; blk < blocks; blk++ {
		head := int64(float64(headBytes)/math.Pow(float64(blk+1), alpha)) / BytesPerParam
		if head < 1 {
			head = 1
		}
		b.add("blk"+itoa(blk)+"_head", 1, p("weight", head))
		light := lightBytes / BytesPerParam
		if light < 1 {
			light = 1
		}
		for j := 1; j < layersPerBlock; j++ {
			b.add("blk"+itoa(blk)+"_l"+itoa(j), 1, p("weight", light))
		}
	}
	return &Model{
		Name:        name,
		Layers:      b.layers,
		BatchPerGPU: 1,
		SampleUnit:  "samples",
		PerGPUSpeed: 1 / iterCompute,
		FPFraction:  1.0 / 3,
	}
}
