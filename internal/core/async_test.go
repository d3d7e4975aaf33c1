package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bytescheduler/internal/tensor"
)

func TestAsyncBasic(t *testing.T) {
	a := NewAsync(ByteScheduler(100, 0))
	var started atomic.Int64
	var wg sync.WaitGroup
	wg.Add(3)
	task := &Task{
		Tensor: tensor.Tensor{Layer: 0, Name: "w", Bytes: 300},
		Start: func(sub tensor.Sub, done func()) {
			started.Add(1)
			done()
			wg.Done()
		},
	}
	if err := a.Enqueue(task); err != nil {
		t.Fatal(err)
	}
	if err := a.NotifyReady(task); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := started.Load(); got != 3 {
		t.Fatalf("started = %d, want 3", got)
	}
	a.Shutdown()
	if !a.Drained() {
		t.Fatal("not drained after shutdown")
	}
}

func TestAsyncStopAndWaitUnderConcurrency(t *testing.T) {
	// With credit == partition, at most one sub may be in flight at any
	// instant, even when completions come from other goroutines.
	a := NewAsync(ByteScheduler(10, 10))
	var inflight, maxInflight atomic.Int64
	var wg sync.WaitGroup
	const subs = 50
	wg.Add(subs)
	task := &Task{
		Tensor: tensor.Tensor{Layer: 0, Name: "w", Bytes: 10 * subs},
		Start: func(sub tensor.Sub, done func()) {
			cur := inflight.Add(1)
			for {
				old := maxInflight.Load()
				if cur <= old || maxInflight.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(time.Microsecond)
			inflight.Add(-1)
			done()
			wg.Done()
		},
	}
	if err := a.Enqueue(task); err != nil {
		t.Fatal(err)
	}
	if err := a.NotifyReady(task); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	a.Shutdown()
	if got := maxInflight.Load(); got != 1 {
		t.Fatalf("max in flight = %d, want 1", got)
	}
}

func TestAsyncManyProducers(t *testing.T) {
	a := NewAsync(ByteScheduler(1<<20, 8<<20))
	var completed atomic.Int64
	var wg sync.WaitGroup
	const producers = 8
	const tasksPer = 20
	var allDone sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < tasksPer; i++ {
				allDone.Add(1)
				task := &Task{
					Tensor: tensor.Tensor{Layer: p, Name: "w", Bytes: 1 << 20},
					Start: func(sub tensor.Sub, done func()) {
						completed.Add(1)
						done()
					},
					OnFinished: func() { allDone.Done() },
				}
				if err := a.Enqueue(task); err != nil {
					t.Error(err)
					allDone.Done()
					return
				}
				if err := a.NotifyReady(task); err != nil {
					t.Error(err)
					allDone.Done()
					return
				}
			}
		}(p)
	}
	wg.Wait()
	allDone.Wait()
	a.Shutdown()
	if got := completed.Load(); got != producers*tasksPer {
		t.Fatalf("completed = %d, want %d", got, producers*tasksPer)
	}
	st := a.Stats()
	if st.SubsStarted != st.SubsFinished {
		t.Fatalf("in-flight leak: %+v", st)
	}
}

func TestAsyncShutdownRejects(t *testing.T) {
	a := NewAsync(FIFO())
	a.Shutdown()
	task := &Task{Tensor: tensor.Tensor{Bytes: 1}, Start: func(tensor.Sub, func()) {}}
	if err := a.Enqueue(task); err != ErrShutdown {
		t.Fatalf("Enqueue after shutdown = %v, want ErrShutdown", err)
	}
	if err := a.NotifyReady(task); err != ErrShutdown {
		t.Fatalf("NotifyReady after shutdown = %v, want ErrShutdown", err)
	}
}

func TestAsyncNilTask(t *testing.T) {
	a := NewAsync(FIFO())
	if err := a.Enqueue(nil); err == nil {
		t.Fatal("nil task accepted")
	}
	if err := a.Enqueue(&Task{}); err == nil {
		t.Fatal("task without Start accepted")
	}
}

func TestAsyncSetParams(t *testing.T) {
	// New partitioning applies only to tasks enqueued after the swap; the
	// credit delta keeps in-flight reservations intact.
	a := NewAsync(ByteScheduler(100, 1000))
	countSubs := func(bytes int64) int {
		var subs atomic.Int64
		fin := make(chan struct{})
		task := &Task{
			Tensor: tensor.Tensor{Layer: 0, Name: "w", Bytes: bytes},
			Start: func(sub tensor.Sub, done func()) {
				subs.Add(1)
				done()
			},
		}
		task.OnFinished = func() { close(fin) }
		if err := a.Enqueue(task); err != nil {
			t.Fatal(err)
		}
		if err := a.NotifyReady(task); err != nil {
			t.Fatal(err)
		}
		<-fin
		return int(subs.Load())
	}
	if got := countSubs(300); got != 3 {
		t.Fatalf("before SetParams: %d subs, want 3", got)
	}
	if err := a.SetParams(150, 600); err != nil {
		t.Fatal(err)
	}
	if got := countSubs(300); got != 2 {
		t.Fatalf("after SetParams: %d subs, want 2", got)
	}
	if err := a.SetParams(-1, 10); err == nil {
		t.Error("negative partition accepted")
	}
	if err := a.SetParams(100, -1); err == nil {
		t.Error("negative credit accepted")
	}
	a.Shutdown()
	if err := a.SetParams(100, 100); err != ErrShutdown {
		t.Errorf("SetParams after shutdown = %v, want ErrShutdown", err)
	}
}

// TestAsyncAdmit: an AsyncScheduler with an empty policy driven by Admit
// (a live ring follower) starts each admitted partition at once, in any
// order, cut at the admitting Core's unit rather than its own,
// resolves the task after its last partition, counts every start and
// refuses a partition outside the cut or admitted twice.
func TestAsyncAdmit(t *testing.T) {
	a := NewAsync(Policy{Name: "follower"})
	var mu sync.Mutex
	var got []tensor.Sub
	finished := make(chan struct{})
	task := &Task{
		Tensor: tensor.Tensor{Layer: 2, Name: "w", Bytes: 1000},
		Start: func(sub tensor.Sub, done func()) {
			mu.Lock()
			got = append(got, sub)
			mu.Unlock()
			done()
		},
		OnFinished: func() { close(finished) },
	}
	const unit = 400 // 400 + 400 + 200
	for _, i := range []int{2, 0} {
		if err := a.Admit(task, unit, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Admit(task, unit, 2); err == nil {
		t.Fatal("partition 2 admitted twice")
	}
	if err := a.Admit(task, unit, 3); err == nil {
		t.Fatal("partition 3 of a 3-partition cut admitted")
	}
	if err := a.Admit(task, unit, 1); err != nil {
		t.Fatal(err)
	}
	<-finished
	a.Shutdown()
	mu.Lock()
	defer mu.Unlock()
	want := tensor.AppendPartition(nil, task.Tensor, unit)
	if len(got) != len(want) {
		t.Fatalf("started %d partitions, want %d", len(got), len(want))
	}
	for _, s := range got {
		if s != want[s.Index] {
			t.Fatalf("started %+v, want %+v", s, want[s.Index])
		}
	}
	if st := a.Stats(); st.SubsStarted != 3 || st.SubsFinished != 3 || st.TasksEnqueued != 1 {
		t.Fatalf("stats = %+v, want 3 started and finished, 1 task", st)
	}
}
