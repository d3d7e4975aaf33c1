package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bytescheduler/internal/tensor"
)

// layerStarter is a task's Starter that also carries its layer: a stamping
// releaser overwrites Tensor.Layer at release.
type layerStarter int

func (layerStarter) StartSub(h *Handle) { h.Done(nil) }

func layerTask(l int) *Task {
	return &Task{Tensor: tensor.Tensor{Layer: l, Name: "g", Bytes: 1}, Starter: layerStarter(l)}
}

// origin returns the layer layerTask built tk for.
func origin(tk *Task) int { return int(tk.Starter.(layerStarter)) }

// emitPass feeds one backward pass (layers back-to-front) through the
// releaser and flushes at the pass boundary, mirroring the live worker.
func emitPass(t *testing.T, r *StreamReleaser, layers int) {
	t.Helper()
	for l := layers - 1; l >= 0; l-- {
		if err := r.NotifyReady(layerTask(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
}

// releaseSink is the downstream of the releasers under test: it records
// what reaches it, in order.
type releaseSink struct {
	enqueued []*Task
	released []*Task
	ready    func(*Task) error // optional NotifyReady hook and outcome
}

func (s *releaseSink) Enqueue(t *Task) error {
	s.enqueued = append(s.enqueued, t)
	return nil
}

func (s *releaseSink) NotifyReady(t *Task) error {
	s.released = append(s.released, t)
	if s.ready != nil {
		return s.ready(t)
	}
	return nil
}

// layers returns the released tasks' original layers, in release order.
func (s *releaseSink) layers() []int {
	out := make([]int, len(s.released))
	for i, tk := range s.released {
		out[i] = origin(tk)
	}
	return out
}

// recordingReleaser builds a stamping releaser ordered by the rank table.
func recordingReleaser(t *testing.T, window int, ranks []int64) (*StreamReleaser, *releaseSink) {
	t.Helper()
	sink := &releaseSink{}
	r, err := NewStreamReleaser(window, true, RankPriority(ranks), sink)
	if err != nil {
		t.Fatal(err)
	}
	return r, sink
}

func TestStreamReleaserValidation(t *testing.T) {
	prio := func(tensor.Tensor, uint64) int64 { return 0 }
	if _, err := NewStreamReleaser(0, true, prio, &releaseSink{}); err == nil {
		t.Fatal("window 0 accepted")
	}
	if _, err := NewStreamReleaser(1, true, nil, &releaseSink{}); err == nil {
		t.Fatal("nil prio accepted")
	}
	if _, err := NewStreamReleaser(1, true, prio, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

// TestStreamReleaserIsASink pins the TaskSink contract: Enqueue reaches the
// downstream at once, whatever the window holds back, and an unstamped
// releaser leaves the task's own priority alone.
func TestStreamReleaserIsASink(t *testing.T) {
	sink := &releaseSink{}
	r, err := NewStreamReleaser(3, false, LayerPriority, sink)
	if err != nil {
		t.Fatal(err)
	}
	for l := 2; l >= 1; l-- {
		tk := layerTask(l)
		if err := r.Enqueue(tk); err != nil {
			t.Fatal(err)
		}
		if err := r.NotifyReady(tk); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.enqueued) != 2 || len(sink.released) != 0 {
		t.Fatalf("downstream saw %d enqueues and %d releases, want 2 and 0 (window holds)", len(sink.enqueued), len(sink.released))
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range sink.released {
		if tk.Tensor.Layer != origin(tk) {
			t.Fatalf("unstamped releaser rewrote layer %d to %d", origin(tk), tk.Tensor.Layer)
		}
	}
}

// TestStreamReleaserWindowOne pins the streaming degenerate case: with a
// window of one every emission is released at once, so the release order
// is the emission order regardless of priorities and nothing is ever held.
func TestStreamReleaserWindowOne(t *testing.T) {
	r, sink := recordingReleaser(t, 1, LayerRanks(5))
	for l := 4; l >= 0; l-- {
		if err := r.NotifyReady(layerTask(l)); err != nil {
			t.Fatal(err)
		}
		if r.Buffered() != 0 {
			t.Fatalf("window-1 releaser holds %d tasks after emitting layer %d", r.Buffered(), l)
		}
	}
	if want := []int{4, 3, 2, 1, 0}; !reflect.DeepEqual(sink.layers(), want) {
		t.Fatalf("window-1 release order = %v, want emission order %v", sink.layers(), want)
	}
}

// TestStreamReleaserFullWindow pins the pass-end degenerate case: a window
// as large as the pass releases nothing before the pass's last emission,
// and the pass goes out in priority order — the pass-end sort.
func TestStreamReleaserFullWindow(t *testing.T) {
	r, sink := recordingReleaser(t, 5, LayerRanks(5))
	for l := 4; l >= 0; l-- {
		if got := r.Released(); got != 0 {
			t.Fatalf("released %d tasks before the pass's last emission", got)
		}
		if err := r.NotifyReady(layerTask(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(sink.layers(), want) {
		t.Fatalf("full-window release order = %v, want priority order %v", sink.layers(), want)
	}
}

// TestStreamReleaserBoundedLookahead checks the interesting middle: a
// window of 2 over a 4-layer backward pass (emitted 3,2,1,0 with layer
// ranks) only ever chooses between two tasks, so it releases the best of
// each pair rather than the global best.
func TestStreamReleaserBoundedLookahead(t *testing.T) {
	r, sink := recordingReleaser(t, 2, LayerRanks(4))
	emitPass(t, r, 4)
	// Window evolution: emit 3 -> [3]; emit 2 -> best of {3,2} = 2 -> [3];
	// emit 1 -> 1 -> [3]; emit 0 -> 0 -> [3]; flush releases 3.
	if want := []int{2, 1, 0, 3}; !reflect.DeepEqual(sink.layers(), want) {
		t.Fatalf("bounded release order = %v, want %v", sink.layers(), want)
	}
}

// TestStreamReleaserAgreement is the coordinated-release property: peers
// that feed identical emission sequences through identically configured
// releasers compute identical (task, stamp) sequences, even across
// multiple passes — the stamps keep increasing, so two in-flight
// iterations share one agreed total order.
func TestStreamReleaserAgreement(t *testing.T) {
	ranks := RandomRanks(3, 6)
	type release struct {
		layer, stamp int
	}
	run := func() []release {
		r, sink := recordingReleaser(t, 3, ranks)
		for pass := 0; pass < 3; pass++ {
			emitPass(t, r, 6)
		}
		if r.Buffered() != 0 {
			t.Fatalf("%d tasks left buffered after flush", r.Buffered())
		}
		got := make([]release, len(sink.released))
		for i, tk := range sink.released {
			got[i] = release{origin(tk), tk.Tensor.Layer}
		}
		return got
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("peers disagree on release order:\n%v\n%v", a, b)
	}
	for i, rel := range a {
		if rel.stamp != i {
			t.Fatalf("stamp sequence has a gap at %d: %v", i, a[:i+1])
		}
	}
}

// TestStreamReleaserTieBreak pins determinism under equal priorities: ties
// release in emission order.
func TestStreamReleaserTieBreak(t *testing.T) {
	r, sink := recordingReleaser(t, 4, []int64{0, 0, 0, 0})
	emitPass(t, r, 4)
	if want := []int{3, 2, 1, 0}; !reflect.DeepEqual(sink.layers(), want) {
		t.Fatalf("tied release order = %v, want emission order %v", sink.layers(), want)
	}
}

func TestStreamReleaserErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	sink := &releaseSink{ready: func(tk *Task) error {
		if origin(tk) == 2 {
			return fmt.Errorf("layer 2: %w", boom)
		}
		return nil
	}}
	tied := func(tensor.Tensor, uint64) int64 { return 0 }
	r, err := NewStreamReleaser(5, true, tied, sink)
	if err != nil {
		t.Fatal(err)
	}
	// The window holds the whole pass and tied priorities drain in emission
	// order, so layer 2 fails mid-Flush with layers 1 and 0 still behind it.
	for l := 3; l >= 0; l-- {
		if err := r.NotifyReady(layerTask(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err == nil || !errors.Is(err, boom) {
		t.Fatalf("flush error = %v, want wrapped boom", err)
	}
	if r.Buffered() != 0 {
		t.Fatal("error left tasks buffered")
	}
	if len(sink.released) != 4 {
		t.Fatalf("released %d tasks, want all 4 despite the error", len(sink.released))
	}
	// A release that fails at emission is reported there, and the task has
	// left the window.
	r, err = NewStreamReleaser(1, true, tied, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.NotifyReady(layerTask(2)); !errors.Is(err, boom) {
		t.Fatalf("emission error = %v, want wrapped boom", err)
	}
	if r.Buffered() != 0 {
		t.Fatal("failed release stayed in the window")
	}
}

// TestFuserReleaserChainAgreement is the property that lets fusion run on
// coordinated transports: two peers' Fuser→StreamReleaser chains, fed the
// same emission sequence (tensor sizes scattered around θ, random ranks,
// random window), hand their schedulers the identical (task, stamp)
// sequence however the calls are spaced in time — bucket membership and
// release order depend on the sequence alone — and every stamp of a pass
// is below every stamp of the next, so a bucket is ordered by when it is
// released, not by a member's earlier position.
func TestFuserReleaserChainAgreement(t *testing.T) {
	type release struct {
		name        string
		stamp, pass int
	}
	const passes = 3
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		layers := 4 + rng.Intn(12)
		theta := int64(4 * (16 + rng.Intn(64)))
		window := 1 + rng.Intn(layers+1)
		ranks := RandomRanks(seed, layers)
		sizes := make([][]int64, passes)
		var total int64
		for p := range sizes {
			sizes[p] = make([]int64, layers)
			for l := range sizes[p] {
				sizes[p][l] = 4 * (1 + rng.Int63n(theta/2)) // (0, 2θ]
				total += sizes[p][l]
			}
		}
		run := func(jitter *rand.Rand) []release {
			pause := func() {
				if jitter != nil {
					time.Sleep(time.Duration(jitter.Intn(100)) * time.Microsecond)
				}
			}
			var got []release
			var bytes int64
			pass := 0
			sink := &releaseSink{ready: func(tk *Task) error {
				got = append(got, release{tk.Tensor.Name, tk.Tensor.Layer, pass})
				bytes += tk.Tensor.Bytes
				return nil
			}}
			r, err := NewStreamReleaser(window, true, RankPriority(ranks), sink)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFuser(FuserConfig{Theta: theta, Start: func(*Fused) Starter { return noopStarter }}, r)
			if err != nil {
				t.Fatal(err)
			}
			for ; pass < passes; pass++ {
				for l := layers - 1; l >= 0; l-- {
					pause()
					tk := &Task{Tensor: tensor.Tensor{Layer: l, Name: fmt.Sprintf("g%02d", l), Bytes: sizes[pass][l]}, StartErr: noopStart}
					if err := f.Add(tk); err != nil {
						t.Fatal(err)
					}
				}
				pause()
				if err := f.Flush(); err != nil {
					t.Fatal(err)
				}
				pause()
				if err := r.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if r.Buffered() != 0 || bytes != total {
				t.Fatalf("seed %d: %d tasks still held, %d of %d bytes released", seed, r.Buffered(), bytes, total)
			}
			if len(got) != len(sink.enqueued) {
				t.Fatalf("seed %d: %d tasks enqueued downstream, %d released", seed, len(sink.enqueued), len(got))
			}
			return got
		}
		a, b := run(nil), run(rand.New(rand.NewSource(seed+100)))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d (θ=%d window=%d): chains disagree:\n%v\n%v", seed, theta, window, a, b)
		}
		for i, rel := range a {
			if rel.stamp != i {
				t.Fatalf("seed %d: stamp sequence has a gap at %d: %v", seed, i, a[:i+1])
			}
			if i > 0 && rel.pass < a[i-1].pass {
				t.Fatalf("seed %d: pass %d released after pass %d at stamp %d", seed, rel.pass, a[i-1].pass, i)
			}
		}
	}
}
