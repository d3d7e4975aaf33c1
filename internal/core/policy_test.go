package core

import (
	"reflect"
	"testing"

	"bytescheduler/internal/tensor"
)

func TestParsePriorityPolicy(t *testing.T) {
	cases := map[string]PriorityPolicy{
		"":              PriorityDefault,
		"default":       PriorityDefault,
		"layer":         PriorityLayer,
		"tictac":        PriorityCriticalPath,
		"critical-path": PriorityCriticalPath,
		"cp":            PriorityCriticalPath,
		"random":        PriorityRandom,
	}
	for in, want := range cases {
		got, err := ParsePriorityPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePriorityPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePriorityPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	for _, p := range []PriorityPolicy{PriorityDefault, PriorityLayer, PriorityCriticalPath, PriorityRandom} {
		round, err := ParsePriorityPolicy(p.String())
		if err != nil || round != p {
			t.Fatalf("String/Parse round trip for %v: got %v, %v", p, round, err)
		}
	}
}

func TestDAGTimingsValidate(t *testing.T) {
	bad := []DAGTimings{
		{},
		{FP: []float64{1}, LayerBytes: []int64{1, 2}, BytesPerSec: 1},
		{FP: []float64{1}, LayerBytes: []int64{1}, BytesPerSec: 0},
		{FP: []float64{-1}, LayerBytes: []int64{1}, BytesPerSec: 1},
		{FP: []float64{1}, LayerBytes: []int64{-1}, BytesPerSec: 1},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid timings accepted: %+v", i, d)
		}
	}
	badBP := []DAGTimings{
		{FP: []float64{1, 1}, BP: []float64{1}, LayerBytes: []int64{4, 4}, BytesPerSec: 1},
		{FP: []float64{1, 1}, BP: []float64{1, -1}, LayerBytes: []int64{4, 4}, BytesPerSec: 1},
	}
	for i, d := range badBP {
		if err := d.Validate(); err == nil {
			t.Errorf("BP case %d: invalid timings accepted: %+v", i, d)
		}
	}
}

// TestCriticalPathPerOpBP is the regression test for the uniform
// backward-compute assumption. The profile concentrates the backward cost
// in the op that produces the tail layer's gradient (BP = [0,0,15]): the
// tail both carries the fat tensor and sits under the slow backward op, so
// the chain through it — 15s of backward, a 10s transfer, 1s of forward —
// is the longest in the iteration and must outrank everything. A uniform
// backward knob with the same total (5s per op) instead inflates the front
// layer's suffix most and promotes layer 0 — the ordering this test would
// have pinned before DAGTimings carried per-op BP. Both orders are
// asserted so the divergence stays visible.
func TestCriticalPathPerOpBP(t *testing.T) {
	perOp := DAGTimings{
		FP:          []float64{1, 1, 1},
		BP:          []float64{0, 0, 15},
		LayerBytes:  []int64{0, 0, 10},
		BytesPerSec: 1,
	}
	// Paths: R(2) = 15+10+1 = 26, R(0) = 15+0+3 = 18, R(1) = 15+0+2 = 17.
	ranks, err := perOp.CriticalPathRanks()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 2, 0}; !reflect.DeepEqual(ranks, want) {
		t.Fatalf("per-op BP ranks = %v, want %v", ranks, want)
	}
	uniform := perOp
	uniform.BP = []float64{5, 5, 5} // same total backward cost, flat profile
	// Paths: R(0) = 15+0+3 = 18, R(2) = 5+10+1 = 16, R(1) = 10+0+2 = 12.
	flat, err := uniform.CriticalPathRanks()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 2, 1}; !reflect.DeepEqual(flat, want) {
		t.Fatalf("uniform BP ranks = %v, want %v", flat, want)
	}
	if reflect.DeepEqual(ranks, flat) {
		t.Fatal("per-op BP profile did not change the ordering: the uniform knob would have been sufficient")
	}
}

// TestCriticalPathNilBPBackCompat pins that a profile without backward
// timings ranks exactly as before BP existed: transfer + forward suffix.
func TestCriticalPathNilBPBackCompat(t *testing.T) {
	d := DAGTimings{
		FP:          []float64{1, 1, 1},
		LayerBytes:  []int64{0, 0, 10},
		BytesPerSec: 1,
	}
	ranks, err := d.CriticalPathRanks()
	if err != nil {
		t.Fatal(err)
	}
	// R = [3, 2, 11]: tail transfer dominates, then front-to-back.
	if want := []int64{1, 2, 0}; !reflect.DeepEqual(ranks, want) {
		t.Fatalf("nil-BP ranks = %v, want %v", ranks, want)
	}
}

func TestCriticalPathSec(t *testing.T) {
	d := DAGTimings{
		FP:          []float64{1, 1, 1},
		BP:          []float64{0, 0, 15},
		LayerBytes:  []int64{0, 0, 10},
		BytesPerSec: 1,
	}
	cp, err := d.CriticalPathSec()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 26 { // the chain through the tail layer
		t.Fatalf("CriticalPathSec = %v, want 26", cp)
	}
	if _, err := (DAGTimings{}).CriticalPathSec(); err == nil {
		t.Fatal("empty profile accepted")
	}
}

// TestCriticalPathUniformProfile pins the degenerate case: when every layer
// has the same forward time and size, remaining critical-path length is
// strictly decreasing in the layer index, so the critical-path ranks reduce
// to layer order.
func TestCriticalPathUniformProfile(t *testing.T) {
	d := DAGTimings{
		FP:          []float64{2e-3, 2e-3, 2e-3, 2e-3},
		LayerBytes:  []int64{1 << 20, 1 << 20, 1 << 20, 1 << 20},
		BytesPerSec: 1e9,
	}
	ranks, err := d.CriticalPathRanks()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ranks, LayerRanks(4)) {
		t.Fatalf("uniform profile ranks = %v, want layer order", ranks)
	}
}

// TestCriticalPathTailHeavyProfile is the TicTac-order regression test: on
// a tail-heavy profile (a huge transfer late in the DAG, e.g. a classifier
// layer, behind a short forward suffix) PriorityCriticalPath must order
// layers differently from plain layer index — the tail's transfer time
// dominates its remaining path. An early TicTac policy was a mislabeled
// alias for LayerPriority and sorted both profiles identically.
func TestCriticalPathTailHeavyProfile(t *testing.T) {
	d := DAGTimings{
		// 1 ms of forward per layer; the last layer carries 64 MB while the
		// rest carry 256 KB. At 1 GB/s the tail transfer is 64 ms — longer
		// than the whole forward suffix of any front layer.
		FP:          []float64{1e-3, 1e-3, 1e-3, 1e-3},
		LayerBytes:  []int64{256 << 10, 256 << 10, 256 << 10, 64 << 20},
		BytesPerSec: 1e9,
	}
	ranks, err := PriorityCriticalPath.Ranks(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ranks, LayerRanks(4)) {
		t.Fatalf("tail-heavy profile ranks = %v, identical to layer order", ranks)
	}
	if ranks[3] != 0 {
		t.Fatalf("tail layer rank = %d, want 0 (longest remaining path first); ranks = %v", ranks[3], ranks)
	}
	// The two policies must disagree through the Policy surface too.
	tail := tensor.Tensor{Layer: 3, Bytes: 64 << 20}
	front := tensor.Tensor{Layer: 0, Bytes: 256 << 10}
	cp := RankPriority(ranks)
	if cp(tail, 1) >= cp(front, 2) {
		t.Fatal("critical-path policy does not prefer the tail transfer")
	}
	if LayerPriority(tail, 1) <= LayerPriority(front, 2) {
		t.Fatal("layer policy unexpectedly prefers the tail transfer")
	}
}

func TestRandomRanksDeterministic(t *testing.T) {
	a := RandomRanks(42, 16)
	b := RandomRanks(42, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different permutations: %v vs %v", a, b)
	}
	c := RandomRanks(43, 16)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced the same permutation: %v", a)
	}
	seen := make(map[int64]bool, 16)
	for _, r := range a {
		if r < 0 || r >= 16 || seen[r] {
			t.Fatalf("not a permutation: %v", a)
		}
		seen[r] = true
	}
}

func TestPriorityPolicyRanks(t *testing.T) {
	d := DAGTimings{FP: []float64{1e-3, 1e-3}, LayerBytes: []int64{1 << 20, 1 << 20}, BytesPerSec: 1e9}
	if r, err := PriorityDefault.Ranks(d, 1); err != nil || r != nil {
		t.Fatalf("PriorityDefault.Ranks = %v, %v; want nil, nil", r, err)
	}
	if r, err := PriorityLayer.Ranks(d, 1); err != nil || !reflect.DeepEqual(r, []int64{0, 1}) {
		t.Fatalf("PriorityLayer.Ranks = %v, %v", r, err)
	}
	if _, err := PriorityCriticalPath.Ranks(DAGTimings{}, 1); err == nil {
		t.Fatal("critical path accepted empty timings")
	}
	if r, err := PriorityRandom.Ranks(d, 7); err != nil || len(r) != 2 {
		t.Fatalf("PriorityRandom.Ranks = %v, %v", r, err)
	}
}

func TestRankPriority(t *testing.T) {
	fn := RankPriority([]int64{2, 0, 1})
	for layer, want := range []int64{2, 0, 1} {
		if got := fn(tensor.Tensor{Layer: layer}, 9); got != want {
			t.Fatalf("rank(layer %d) = %d, want %d", layer, got, want)
		}
	}
	// Out-of-table layers keep their index (fused buckets, probes).
	if got := fn(tensor.Tensor{Layer: 7}, 9); got != 7 {
		t.Fatalf("rank(layer 7) = %d, want 7", got)
	}
}
