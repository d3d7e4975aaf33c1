// DAG timing analysis: the engine's per-layer view of the training graph
// reduced to a timing profile other layers (the core priority strategies,
// reports) can consume without depending on a live engine instance. This is
// the data TicTac-style critical-path priorities are computed from — the
// same FP/BP op durations and gradient sizes the simulator executes.
package engine

import (
	"bytescheduler/internal/core"
	"bytescheduler/internal/model"
)

// TimingProfile is the per-layer timing analysis of a model's training DAG:
// forward and backward op durations in seconds and the communication volume
// each layer's gradient sync moves.
type TimingProfile struct {
	FP         []float64
	BP         []float64
	LayerBytes []int64
}

// Profile analyzes the model's chain DAG — the graph the executor runs —
// into a timing profile.
func Profile(m *model.Model) TimingProfile {
	p := TimingProfile{FP: m.FPTimes(), BP: m.BPTimes(), LayerBytes: make([]int64, len(m.Layers))}
	for i, l := range m.Layers {
		p.LayerBytes[i] = l.Bytes()
	}
	return p
}

// DAGTimings converts the profile into the core scheduler's priority input
// for a link of the given rate. The per-op BP durations ride along, so
// critical-path ranks see where in the backward pass each gradient actually
// surfaces instead of assuming a uniform backward cost.
func (p TimingProfile) DAGTimings(bytesPerSec float64) core.DAGTimings {
	return core.DAGTimings{FP: p.FP, BP: p.BP, LayerBytes: p.LayerBytes, BytesPerSec: bytesPerSec}
}
