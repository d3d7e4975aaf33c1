package core

import (
	"errors"
	"sync"
	"testing"

	"bytescheduler/internal/tensor"
)

// recordSink captures forwarded tasks without scheduling them.
type recordSink struct {
	mu    sync.Mutex
	tasks []*Task
}

func (s *recordSink) Enqueue(t *Task) error {
	s.mu.Lock()
	s.tasks = append(s.tasks, t)
	s.mu.Unlock()
	return nil
}

func (s *recordSink) NotifyReady(*Task) error { return nil }

func (s *recordSink) all() []*Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Task(nil), s.tasks...)
}

func noopStart(sub tensor.Sub, done func(error)) { done(nil) }

// starterFunc adapts a function to Starter.
type starterFunc func(h *Handle)

func (f starterFunc) StartSub(h *Handle) { f(h) }

// noopStarter completes every partition at once.
var noopStarter = starterFunc(func(h *Handle) { h.Done(nil) })

func smallTask(layer int, bytes int64) *Task {
	return &Task{
		Tensor:   tensor.Tensor{Layer: layer, Name: "g", Bytes: bytes},
		StartErr: noopStart,
	}
}

func TestFuserPassthroughAboveTheta(t *testing.T) {
	sink := &recordSink{}
	f, err := NewFuser(FuserConfig{
		Theta: 100,
		Start: func(*Fused) Starter { t.Error("fused Start called for passthrough"); return noopStarter },
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	big := smallTask(3, 100) // exactly Theta: not fused
	if err := f.Add(big); err != nil {
		t.Fatal(err)
	}
	got := sink.all()
	if len(got) != 1 || got[0] != big {
		t.Fatalf("expected the task forwarded unfused, got %d tasks", len(got))
	}
	st := f.Stats()
	if st.Passthrough != 1 || st.FusedTasks != 0 {
		t.Fatalf("stats = %+v, want 1 passthrough and no fusion", st)
	}
}

func TestFuserDisabledPassesEverything(t *testing.T) {
	sink := &recordSink{}
	f, err := NewFuser(FuserConfig{}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(smallTask(0, 4)); err != nil {
		t.Fatal(err)
	}
	if got := sink.all(); len(got) != 1 {
		t.Fatalf("disabled fuser forwarded %d tasks, want 1", len(got))
	}
}

// TestFuserSizeFlush pins the bucket composition: a size-triggered flush
// emits one fused task whose priority is the minimum member layer, whose
// size is the member total, and whose offsets tile the fused buffer
// exactly in Add order.
func TestFuserSizeFlush(t *testing.T) {
	sink := &recordSink{}
	var fused *Fused
	f, err := NewFuser(FuserConfig{
		Theta: 100,
		Start: func(fd *Fused) Starter {
			fused = fd
			return noopStarter
		},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	members := []*Task{smallTask(7, 40), smallTask(2, 40), smallTask(5, 40)}
	for i, m := range members {
		if err := f.Add(m); err != nil {
			t.Fatal(err)
		}
		if i < 2 && len(sink.all()) != 0 {
			t.Fatalf("bucket flushed after %d members (%d bytes), below Theta", i+1, 40*(i+1))
		}
	}
	got := sink.all()
	if len(got) != 1 {
		t.Fatalf("expected 1 fused task, got %d", len(got))
	}
	ft := got[0]
	if ft.Tensor.Layer != 2 {
		t.Fatalf("fused priority layer = %d, want the minimum member layer 2", ft.Tensor.Layer)
	}
	if ft.Tensor.Bytes != 120 {
		t.Fatalf("fused bytes = %d, want 120", ft.Tensor.Bytes)
	}
	if want := "fused(L07/g+L02/g+L05/g)"; ft.Tensor.Name != want {
		t.Fatalf("fused signature = %q, want %q", ft.Tensor.Name, want)
	}
	if fused == nil {
		t.Fatal("fused Start never received the bucket")
	}
	if len(fused.Members()) != 3 {
		t.Fatalf("fused members = %d, want 3", len(fused.Members()))
	}
	wantOff := []int64{0, 40, 80}
	for i, off := range fused.Offsets() {
		if off != wantOff[i] {
			t.Fatalf("offsets = %v, want %v", fused.Offsets(), wantOff)
		}
		if fused.Members()[i] != members[i] {
			t.Fatalf("member %d out of Add order", i)
		}
	}
	st := f.Stats()
	if st.FusedTasks != 1 || st.FusedMembers != 3 || st.SizeFlushes != 1 {
		t.Fatalf("stats = %+v, want 1 fused task, 3 members, 1 size flush", st)
	}
}

// TestFuserUnfuseExactlyOnce pins the unfuse accounting: when the fused
// task resolves, every member's OnFinished fires exactly once with the
// fused outcome — both on success and on permanent failure.
func TestFuserUnfuseExactlyOnce(t *testing.T) {
	for _, outcome := range []error{nil, errors.New("substrate died")} {
		sink := &recordSink{}
		f, err := NewFuser(FuserConfig{
			Theta: 100,
			Start: func(*Fused) Starter { return noopStarter },
		}, sink)
		if err != nil {
			t.Fatal(err)
		}
		fires := make([]int, 3)
		var gotErr []error
		members := make([]*Task, 3)
		for i := range members {
			i := i
			members[i] = smallTask(i, 40)
			m := members[i]
			m.OnFinished = func() {
				fires[i]++
				gotErr = append(gotErr, m.Err())
			}
			if err := f.Add(m); err != nil {
				t.Fatal(err)
			}
		}
		ft := sink.all()[0]
		// Resolve the fused task the way a scheduler would: record the
		// outcome, then fire OnFinished once.
		ft.err = outcome
		ft.OnFinished()
		for i, n := range fires {
			if n != 1 {
				t.Fatalf("outcome %v: member %d OnFinished fired %d times, want exactly 1", outcome, i, n)
			}
		}
		for i, e := range gotErr {
			if !errors.Is(e, outcome) {
				t.Fatalf("member %d saw err %v, want the fused outcome %v", i, e, outcome)
			}
		}
	}
}

// TestFuserSchedulerPriority runs fused buckets through a real scheduler
// and checks a later-arriving bucket with a more urgent minimum member is
// transmitted first.
func TestFuserSchedulerPriority(t *testing.T) {
	sched := New(Policy{Name: "test", CreditBytes: 1, Priority: LayerPriority})
	var order []string
	var dones []func(error)
	sink := schedSink{sched}
	f, err := NewFuser(FuserConfig{
		Theta: 80,
		Start: func(fd *Fused) Starter {
			return starterFunc(func(h *Handle) {
				order = append(order, fd.Tensor.Name)
				dones = append(dones, h.Done)
			})
		},
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	// Blocker occupies the single credit slot so subsequent buckets queue.
	blocker := &Task{
		Tensor: tensor.Tensor{Layer: 50, Name: "blocker", Bytes: 400},
		StartErr: func(sub tensor.Sub, done func(error)) {
			order = append(order, "blocker")
			dones = append(dones, done)
		},
	}
	if err := f.Add(blocker); err != nil {
		t.Fatal(err)
	}
	// Bucket A (min layer 5) arrives before bucket B (min layer 2).
	for _, m := range []*Task{smallTask(5, 40), smallTask(6, 40)} {
		if err := f.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*Task{smallTask(9, 40), smallTask(2, 40)} {
		if err := f.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != 1 || order[0] != "blocker" {
		t.Fatalf("start order before release = %v, want just the blocker", order)
	}
	dones[0](nil) // release the blocker's credit
	dones[1](nil)
	dones[2](nil)
	want := []string{"blocker", "fused(L09/g+L02/g)", "fused(L05/g+L06/g)"}
	if len(order) != len(want) {
		t.Fatalf("start order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("start order = %v, want %v (min-member priority must win)", order, want)
		}
	}
}

// schedSink adapts the synchronous Scheduler to the TaskSink interface.
type schedSink struct{ s *Scheduler }

func (s schedSink) Enqueue(t *Task) error     { s.s.Enqueue(t); return nil }
func (s schedSink) NotifyReady(t *Task) error { s.s.NotifyReady(t); return nil }

// TestFuserSingletonSkipsWrapper pins the singleton economy: a bucket of
// one flushes through the member's own Start, so its transport key is the
// same as if fusion were off.
func TestFuserSingletonSkipsWrapper(t *testing.T) {
	sink := &recordSink{}
	f, err := NewFuser(FuserConfig{
		Theta: 100,
		Start: func(*Fused) Starter { t.Error("fused Start called for a singleton"); return noopStarter },
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	m := smallTask(4, 40)
	if err := f.Add(m); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	got := sink.all()
	if len(got) != 1 || got[0] != m {
		t.Fatalf("singleton bucket should forward the member itself, got %d tasks", len(got))
	}
}

func TestFuserCloseFlushesAndRejects(t *testing.T) {
	sink := &recordSink{}
	f, err := NewFuser(FuserConfig{
		Theta: 100,
		Start: func(*Fused) Starter { return noopStarter },
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Task{smallTask(1, 40), smallTask(2, 40)} {
		if err := f.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.all(); len(got) != 1 {
		t.Fatalf("Close flushed %d tasks, want 1", len(got))
	}
	if err := f.Add(smallTask(3, 40)); err == nil {
		t.Fatal("Add after Close succeeded")
	}
}

func TestFuserConfigValidate(t *testing.T) {
	if _, err := NewFuser(FuserConfig{Theta: 100}, &recordSink{}); err == nil {
		t.Fatal("fusion without a Start function accepted")
	}
	if _, err := NewFuser(FuserConfig{Theta: 100,
		Start: func(*Fused) Starter { return noopStarter }}, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}
