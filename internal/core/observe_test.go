package core

import (
	"fmt"
	"sync"
	"testing"

	"bytescheduler/internal/metrics"
	"bytescheduler/internal/tensor"
	"bytescheduler/internal/trace"
)

// TestSnapshotConcurrentWithScheduling scrapes Stats/Snapshot from other
// goroutines while the async scheduler mutates them — the regression for
// the torn reads the old plain-field Stats allowed. Run under -race.
func TestSnapshotConcurrentWithScheduling(t *testing.T) {
	a := NewAsync(ByteScheduler(64, 256))
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := a.Stats()
					if st.SubsFinished > st.SubsStarted {
						t.Error("finished > started in snapshot")
						return
					}
					_ = a.Stats()
				}
			}
		}()
	}
	const tasks = 50
	var done sync.WaitGroup
	done.Add(tasks)
	for i := 0; i < tasks; i++ {
		task := &Task{
			Tensor:     tensor.Tensor{Layer: i % 5, Name: fmt.Sprintf("t%d", i), Bytes: 256},
			Start:      func(sub tensor.Sub, d func()) { go d() },
			OnFinished: done.Done,
		}
		if err := a.Enqueue(task); err != nil {
			t.Fatal(err)
		}
		if err := a.NotifyReady(task); err != nil {
			t.Fatal(err)
		}
	}
	done.Wait()
	a.Shutdown()
	close(stop)
	scrapers.Wait()
	st := a.Stats()
	if st.TasksEnqueued != tasks {
		t.Fatalf("TasksEnqueued = %d, want %d", st.TasksEnqueued, tasks)
	}
	if st.SubsStarted != st.SubsFinished || st.SubsStarted == 0 {
		t.Fatalf("started %d / finished %d at quiescence", st.SubsStarted, st.SubsFinished)
	}
	if st.MaxInflightBytes == 0 || st.MaxInflightBytes > 256 {
		t.Fatalf("MaxInflightBytes = %d, want in (0, 256]", st.MaxInflightBytes)
	}
}

// TestInstrumentPublishesCoreMetrics drives a synchronous scheduler with a
// registry and a wall tracer attached and checks that counters, gauges and
// partition spans come out.
func TestInstrumentPublishesCoreMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := trace.New()
	s := New(ByteScheduler(100, 0))
	s.Instrument(reg)
	s.SetTracer(trace.NewWall(rec))
	var calls int
	task := &Task{
		Tensor: tensor.Tensor{Layer: 3, Name: "w3", Bytes: 250},
		Start: func(sub tensor.Sub, done func()) {
			calls++
			done()
		},
	}
	s.Enqueue(task)
	s.NotifyReady(task)
	if calls != 3 {
		t.Fatalf("starts = %d, want 3 partitions", calls)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["core_subs_started_total"]; got != 3 {
		t.Fatalf("core_subs_started_total = %d", got)
	}
	if got := snap.Counters["core_subs_finished_total"]; got != 3 {
		t.Fatalf("core_subs_finished_total = %d", got)
	}
	if got := snap.Counters["core_tasks_enqueued_total"]; got != 1 {
		t.Fatalf("core_tasks_enqueued_total = %d", got)
	}
	h, ok := snap.Histograms["core_partition_seconds"]
	if !ok || h.Count != 3 {
		t.Fatalf("core_partition_seconds count = %+v", h)
	}
	if rec.Len() != 3 {
		t.Fatalf("tracer spans = %d, want 3", rec.Len())
	}
	for _, sp := range rec.Spans() {
		if sp.Lane != "core/L03" {
			t.Fatalf("span lane = %q, want core/L03", sp.Lane)
		}
	}
	// Detach: further work must not touch the registry or recorder.
	s.Instrument(nil)
	s.SetTracer(nil)
	task2 := &Task{
		Tensor: tensor.Tensor{Layer: 0, Name: "w0", Bytes: 10},
		Start:  func(sub tensor.Sub, done func()) { done() },
	}
	s.Enqueue(task2)
	s.NotifyReady(task2)
	if got := reg.Snapshot().Counters["core_subs_started_total"]; got != 3 {
		t.Fatalf("detached scheduler still counted: %d", got)
	}
	if rec.Len() != 3 {
		t.Fatalf("detached scheduler still traced: %d", rec.Len())
	}
}
