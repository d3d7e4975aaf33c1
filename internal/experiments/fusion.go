package experiments

import (
	"fmt"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/core"
	"bytescheduler/internal/metrics"
	"bytescheduler/internal/runner"
)

// ExtTensorFusion measures the fusion/partition crossover on the live PS
// backend (§2.2's θ analysis, run on a real wire). Partitioning helps fat
// tensors; the inverse knob — fusing the long tail of tiny tensors into
// one message — is what a BERT-like profile needs: every block ships one
// fat matrix and a crowd of biases and LayerNorm vectors that each pay one
// full per-message overhead unfused. The experiment runs the identical
// profile unfused and fused and demands the fused run win; a third leg
// stacks the fp16 wire codec on the fused run and checks the pushed-byte
// ratio on the live transport counters.
//
// Like EXT-RING this measures wall-clock time over loopback TCP, so its
// metrics are measurements, not derivations (Experiment.Live is true and
// the determinism harnesses skip it); the three configs are scored by
// bestMedians.
func ExtTensorFusion(o Opts) (Table, error) {
	const workers = 2
	// Tail-dominated blocks: one 64KB matrix and 24 x 1KB bias/LayerNorm
	// tensors. The tail is 96% of the messages and 27% of the bytes.
	blocks, iters, warmup, reps := 6, 14, 3, 3
	if o.Quick {
		blocks, iters, warmup, reps = 4, 10, 2, 2
	}
	var layers []int64
	for i := 0; i < blocks; i++ {
		layers = append(layers, 64<<10)
		for j := 0; j < 24; j++ {
			layers = append(layers, 1<<10)
		}
	}
	// Zero compute sleeps: the crossover under test is per-message overhead
	// vs payload bytes, and sub-millisecond sleeps round up to the timer
	// tick (~1ms on shared VMs), which would drown the tail's message
	// overhead in fake compute on every one of the hundred layers.
	base := runner.LiveConfig{
		Backend:    runner.LiveBackendPS,
		Workers:    workers,
		LayerBytes: layers,
		Policy:     core.ByteScheduler(64<<10, 256<<10),
		Iterations: iters,
		Warmup:     warmup,
		Seed:       o.Seed,
	}
	const theta = 8 << 10

	// regs[i] is leg i's last run's registry: every run gets a fresh one,
	// so the counters read below are one run's, not the repetitions' sum.
	regs := make([]*metrics.Registry, 3)
	arm := func(i int, name string, theta int64, codec compress.Codec) *liveLeg {
		return &liveLeg{name: name, cfg: func() runner.LiveConfig {
			cfg := base
			cfg.FuseTheta, cfg.Codec = theta, codec
			regs[i] = metrics.NewRegistry()
			cfg.Metrics = regs[i]
			return cfg
		}}
	}
	legs := []*liveLeg{
		arm(0, "unfused", 0, compress.Identity()),
		arm(1, fmt.Sprintf("fused %dKB", theta>>10), theta, compress.Identity()),
		arm(2, fmt.Sprintf("fused %dKB + fp16", theta>>10), theta, compress.FP16Codec()),
	}
	if err := bestMedians(reps, legs); err != nil {
		return Table{}, err
	}
	unf, fus, fp16 := legs[0], legs[1], legs[2]

	pushed := func(reg *metrics.Registry) float64 {
		return float64(reg.Counter("netps_pushed_bytes_total").Value())
	}
	// Requests measure the per-message overhead fusion exists to amortize.
	requests := func(reg *metrics.Registry) float64 {
		return float64(reg.Counter("netps_requests_total").Value())
	}

	speedup := (unf.iter/fus.iter - 1) * 100
	fp16Speedup := (unf.iter/fp16.iter - 1) * 100
	wireRatio := pushed(regs[2]) / pushed(regs[1])

	tab := Table{
		ID: "EXT-FUSION",
		Title: fmt.Sprintf("tensor fusion + wire codecs on live PS: %d workers x %d layers (theta=%dKB)",
			workers, len(layers), theta>>10),
		Columns: []string{"config", "iter_ms", "speedup_pct", "requests"},
		Rows: [][]string{
			{unf.name, f1(unf.iter * 1e3), "0.0", f1(requests(regs[0]))},
			{fus.name, f1(fus.iter * 1e3), f1(speedup), f1(requests(regs[1]))},
			{fp16.name, f1(fp16.iter * 1e3), f1(fp16Speedup), f1(requests(regs[2]))},
		},
		Metrics: map[string]float64{
			"unfused_iter_ms":    unf.iter * 1e3,
			"fused_iter_ms":      fus.iter * 1e3,
			"fp16_iter_ms":       fp16.iter * 1e3,
			"fusion_speedup_pct": speedup,
			"fp16_speedup_pct":   fp16Speedup,
			"unfused_subs":       float64(unf.res.Stats.SubsFinished),
			"fused_subs":         float64(fus.res.Stats.SubsFinished),
			"unfused_requests":   requests(regs[0]),
			"fused_requests":     requests(regs[1]),
			"fp16_wire_ratio":    wireRatio,
		},
		Notes: []string{
			fmt.Sprintf("fusion cut scheduler subs %d -> %d and PS requests %.0f -> %.0f on the same profile",
				unf.res.Stats.SubsFinished, fus.res.Stats.SubsFinished, requests(regs[0]), requests(regs[1])),
			fmt.Sprintf("fp16 codec pushed %.2fx the identity bytes on the wire (ideal 0.5)", wireRatio),
			fmt.Sprintf("best median over %d interleaved repetitions; wall-clock on a shared machine varies between runs", reps),
		},
	}
	return tab, nil
}
