package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bytescheduler/internal/tensor"
)

// flakyNet fails each partition's first failuresPer attempts, then
// succeeds.
type flakyNet struct {
	failuresPer int
	attempts    map[string]int
}

func (n *flakyNet) start(sub tensor.Sub, done func(error)) {
	if n.attempts == nil {
		n.attempts = make(map[string]int)
	}
	key := sub.String()
	n.attempts[key]++
	if n.attempts[key] <= n.failuresPer {
		done(fmt.Errorf("flaky: attempt %d", n.attempts[key]))
		return
	}
	done(nil)
}

func TestRetryThenSucceed(t *testing.T) {
	net := &flakyNet{failuresPer: 2}
	s := New(ByteScheduler(10, 20).WithMaxRetries(3))
	finished := false
	task := &Task{
		Tensor:     tensor.Tensor{Layer: 0, Name: "w", Bytes: 30},
		StartErr:   net.start,
		OnFinished: func() { finished = true },
	}
	s.Enqueue(task)
	s.NotifyReady(task)
	if !finished {
		t.Fatal("task never finished")
	}
	if task.Err() != nil {
		t.Fatalf("task failed: %v", task.Err())
	}
	st := s.Stats()
	if st.Retries != 6 { // 3 partitions x 2 failures each
		t.Fatalf("retries = %d, want 6", st.Retries)
	}
	if st.Failures != 0 {
		t.Fatalf("failures = %d, want 0", st.Failures)
	}
	if st.SubsFinished != 3 {
		t.Fatalf("finished = %d, want 3", st.SubsFinished)
	}
	if st.SubsStarted != st.SubsFinished+st.Failures+st.Retries {
		t.Fatalf("start accounting broken: %+v", st)
	}
	if s.inflight != 0 || s.credit != 20 {
		t.Fatalf("leak: inflight=%d credit=%d", s.inflight, s.credit)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	bang := errors.New("substrate dead")
	s := New(ByteScheduler(10, 10).WithMaxRetries(2))
	finished := false
	task := &Task{
		Tensor:     tensor.Tensor{Layer: 0, Name: "w", Bytes: 20},
		StartErr:   func(sub tensor.Sub, done func(error)) { done(bang) },
		OnFinished: func() { finished = true },
	}
	s.Enqueue(task)
	s.NotifyReady(task)
	if !finished {
		t.Fatal("OnFinished must fire even on permanent failure")
	}
	if !errors.Is(task.Err(), bang) {
		t.Fatalf("task error = %v, want %v", task.Err(), bang)
	}
	st := s.Stats()
	if st.Failures != 2 { // both partitions exhausted the budget
		t.Fatalf("failures = %d, want 2", st.Failures)
	}
	if st.Retries != 4 { // 2 partitions x 2 retries each
		t.Fatalf("retries = %d, want 4", st.Retries)
	}
	// Credit must be fully restored: a dead substrate cannot strand the
	// sliding window (the exact wedge the failure path exists to prevent).
	if s.inflight != 0 || s.credit != 10 {
		t.Fatalf("credit stranded: inflight=%d credit=%d", s.inflight, s.credit)
	}
	if s.Pending() != 0 {
		t.Fatalf("queue leak: %d pending", s.Pending())
	}
}

func TestFailureReleasesCreditToOthers(t *testing.T) {
	// One partition-sized credit. The first task always fails; the second
	// must still transmit — the failure returns credit instead of wedging.
	s := New(ByteScheduler(10, 10)) // MaxRetries 0: fail fast
	var order []string
	bad := &Task{
		Tensor:   tensor.Tensor{Layer: 1, Name: "bad", Bytes: 10},
		StartErr: func(sub tensor.Sub, done func(error)) { done(errors.New("down")) },
	}
	good := &Task{
		Tensor: tensor.Tensor{Layer: 0, Name: "good", Bytes: 10},
		Start: func(sub tensor.Sub, done func()) {
			order = append(order, sub.String())
			done()
		},
	}
	s.Enqueue(bad)
	s.Enqueue(good)
	s.NotifyReady(bad)
	s.NotifyReady(good)
	if len(order) != 1 {
		t.Fatalf("good task ran %d times, want 1", len(order))
	}
	if bad.Err() == nil || good.Err() != nil {
		t.Fatalf("errors: bad=%v good=%v", bad.Err(), good.Err())
	}
}

func TestTaskBothStartsRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("task with both Start and StartErr accepted")
		}
	}()
	s := New(FIFO())
	s.Enqueue(&Task{
		Tensor:   tensor.Tensor{Bytes: 1},
		Start:    func(tensor.Sub, func()) {},
		StartErr: func(tensor.Sub, func(error)) {},
	})
}

func TestAsyncRetryRecovers(t *testing.T) {
	// The async scheduler must survive failures reported from substrate
	// goroutines: credit returns under the lock and the retry proceeds.
	a := NewAsync(ByteScheduler(100, 100).WithMaxRetries(5))
	var attempts atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	task := &Task{
		Tensor: tensor.Tensor{Layer: 0, Name: "w", Bytes: 300},
		StartErr: func(sub tensor.Sub, done func(error)) {
			if attempts.Add(1)%2 == 1 {
				done(errors.New("transient"))
				return
			}
			done(nil)
		},
		OnFinished: func() { wg.Done() },
	}
	if err := a.Enqueue(task); err != nil {
		t.Fatal(err)
	}
	if err := a.NotifyReady(task); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	a.Shutdown()
	if task.Err() != nil {
		t.Fatalf("task failed: %v", task.Err())
	}
	st := a.Stats()
	if st.Retries == 0 {
		t.Fatal("no retries recorded")
	}
	if st.SubsStarted != st.SubsFinished+st.Failures+st.Retries {
		t.Fatalf("accounting broken: %+v", st)
	}
	if !a.Drained() {
		t.Fatal("not drained")
	}
}

func TestAsyncEnqueueDoesNotMutateTask(t *testing.T) {
	a := NewAsync(FIFO())
	start := func(sub tensor.Sub, done func()) { done() }
	task := &Task{Tensor: tensor.Tensor{Name: "w", Bytes: 8}, Start: start}
	before := reflect.ValueOf(task.Start).Pointer()
	if err := a.Enqueue(task); err != nil {
		t.Fatal(err)
	}
	if got := reflect.ValueOf(task.Start).Pointer(); got != before {
		t.Fatal("Enqueue mutated the caller's Start function")
	}
	a.Shutdown()
}

func TestAsyncDoubleEnqueueIsError(t *testing.T) {
	// A live trainer wants a rejected task, not a panic, when a task is
	// accidentally re-submitted.
	a := NewAsync(FIFO())
	defer a.Shutdown()
	task := &Task{Tensor: tensor.Tensor{Name: "w", Bytes: 8}, Start: func(tensor.Sub, func()) {}}
	if err := a.Enqueue(task); err != nil {
		t.Fatal(err)
	}
	if err := a.Enqueue(task); err == nil {
		t.Fatal("double enqueue accepted")
	}
	if err := a.Enqueue(&Task{Tensor: tensor.Tensor{Bytes: 1},
		Start:    func(tensor.Sub, func()) {},
		StartErr: func(tensor.Sub, func(error)) {},
	}); err == nil {
		t.Fatal("both Start and StartErr accepted")
	}
}

func TestAsyncShutdownRacesDoneCallbacks(t *testing.T) {
	// Shutdown must wait for (and not race with) done callbacks arriving
	// from substrate goroutines. Run with -race to validate.
	a := NewAsync(ByteScheduler(10, 50))
	const subs = 40
	var completed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	task := &Task{
		Tensor: tensor.Tensor{Layer: 0, Name: "w", Bytes: 10 * subs},
		StartErr: func(sub tensor.Sub, done func(error)) {
			go func() {
				time.Sleep(time.Duration(completed.Add(1)%3) * 100 * time.Microsecond)
				done(nil)
			}()
		},
		OnFinished: func() { wg.Done() },
	}
	if err := a.Enqueue(task); err != nil {
		t.Fatal(err)
	}
	if err := a.NotifyReady(task); err != nil {
		t.Fatal(err)
	}
	// Shutdown concurrently with in-flight completions.
	done := make(chan struct{})
	go func() {
		a.Shutdown()
		close(done)
	}()
	wg.Wait()
	<-done
	st := a.Stats()
	if st.SubsFinished != subs {
		t.Fatalf("finished = %d, want %d", st.SubsFinished, subs)
	}
}
