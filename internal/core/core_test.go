package core

import (
	"sort"
	"testing"
	"testing/quick"

	"bytescheduler/internal/tensor"
)

// fakeNet collects started subs and lets the test complete them manually.
// With handles set, its tasks reach it as a Starter holding the partition's
// Handle instead of through the Start closure adapter.
type fakeNet struct {
	started []tensor.Sub
	dones   []func()
	handles bool
}

// StartSub implements Starter.
func (f *fakeNet) StartSub(h *Handle) {
	f.start(h.Sub(), func() { h.Done(nil) })
}

// bothStartPaths runs a property once through Task.Start and once through
// Task.Starter.
func bothStartPaths(t *testing.T, property func(t *testing.T, handles bool)) {
	t.Run("closure", func(t *testing.T) { property(t, false) })
	t.Run("handle", func(t *testing.T) { property(t, true) })
}

func (f *fakeNet) start(sub tensor.Sub, done func()) {
	f.started = append(f.started, sub)
	f.dones = append(f.dones, done)
}

// finishNext completes the oldest unfinished sub.
func (f *fakeNet) finishNext() {
	done := f.dones[0]
	f.dones = f.dones[1:]
	done()
}

func mkTask(net *fakeNet, layer int, bytes int64) *Task {
	task := &Task{Tensor: tensor.Tensor{Layer: layer, Name: "w", Bytes: bytes}}
	if net.handles {
		task.Starter = net
	} else {
		task.Start = net.start
	}
	return task
}

func TestPolicyConstructors(t *testing.T) {
	if p := FIFO(); p.PartitionUnit != 0 || p.CreditBytes != 0 || p.Priority != nil {
		t.Fatalf("FIFO = %+v", p)
	}
	if p := P3(); p.PartitionUnit != P3DefaultPartition || p.CreditBytes != P3DefaultPartition {
		t.Fatalf("P3 = %+v", p)
	}
	if p := ByteScheduler(4<<20, 16<<20); p.PartitionUnit != 4<<20 || p.CreditBytes != 16<<20 {
		t.Fatalf("ByteScheduler = %+v", p)
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := (Policy{PartitionUnit: -1}).Validate(); err == nil {
		t.Error("negative partition accepted")
	}
	if err := (Policy{CreditBytes: -1}).Validate(); err == nil {
		t.Error("negative credit accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid policy")
		}
	}()
	New(Policy{PartitionUnit: -1})
}

func TestFIFOOrder(t *testing.T) {
	net := &fakeNet{}
	s := New(FIFO())
	// Tasks arrive in backward-propagation order: layer 2, then 1, then 0.
	for _, layer := range []int{2, 1, 0} {
		task := mkTask(net, layer, 100)
		s.Enqueue(task)
		s.NotifyReady(task)
	}
	if len(net.started) != 3 {
		t.Fatalf("started %d, want 3 (unlimited credit)", len(net.started))
	}
	for i, want := range []int{2, 1, 0} {
		if net.started[i].Parent.Layer != want {
			t.Fatalf("FIFO start order %v", net.started)
		}
	}
	if s.Stats().Preemptions != 0 {
		t.Fatal("FIFO must not preempt")
	}
}

func TestPriorityOrderWithCredit(t *testing.T) {
	net := &fakeNet{}
	s := New(ByteScheduler(100, 100)) // stop-and-wait
	// Layer 2 arrives first and starts; layers 1 and 0 queue up.
	for _, layer := range []int{2, 1, 0} {
		task := mkTask(net, layer, 100)
		s.Enqueue(task)
		s.NotifyReady(task)
	}
	if len(net.started) != 1 {
		t.Fatalf("started %d, want 1", len(net.started))
	}
	net.finishNext()
	net.finishNext()
	net.finishNext()
	// After the in-flight layer-2 finishes, layer 0 must jump ahead of
	// layer 1.
	want := []int{2, 0, 1}
	for i := range want {
		if net.started[i].Parent.Layer != want[i] {
			t.Fatalf("start order %v, want layers %v", net.started, want)
		}
	}
	if s.Stats().Preemptions == 0 {
		t.Fatal("expected a recorded preemption")
	}
}

func TestPartitioning(t *testing.T) {
	net := &fakeNet{}
	s := New(ByteScheduler(100, 0))
	task := mkTask(net, 0, 250)
	s.Enqueue(task)
	if got := len(task.Subs()); got != 3 {
		t.Fatalf("partitions = %d, want 3", got)
	}
	s.NotifyReady(task)
	if len(net.started) != 3 {
		t.Fatalf("started = %d, want 3 with unlimited credit", len(net.started))
	}
	var bytes int64
	for _, sub := range net.started {
		bytes += sub.Bytes
	}
	if bytes != 250 {
		t.Fatalf("started bytes = %d, want 250", bytes)
	}
}

func TestCreditWindow(t *testing.T) {
	net := &fakeNet{}
	s := New(ByteScheduler(100, 250)) // window of 2.5 partitions
	task := mkTask(net, 0, 1000)
	s.Enqueue(task)
	s.NotifyReady(task)
	if len(net.started) != 2 {
		t.Fatalf("in flight = %d, want 2 (credit 250, subs of 100)", len(net.started))
	}
	if got := s.credit; got != 50 {
		t.Fatalf("credit = %d, want 50", got)
	}
	net.finishNext()
	if len(net.started) != 3 {
		t.Fatalf("after one finish, started = %d, want 3", len(net.started))
	}
}

func TestStopAndWait(t *testing.T) {
	net := &fakeNet{}
	s := New(P3())
	task := mkTask(net, 0, 5*P3DefaultPartition)
	s.Enqueue(task)
	s.NotifyReady(task)
	for i := 1; i <= 5; i++ {
		if len(net.started) != i {
			t.Fatalf("stop-and-wait violated: %d in flight at step %d", len(net.started), i)
		}
		if s.inflight != 1 {
			t.Fatalf("inflight = %d, want 1", s.inflight)
		}
		net.finishNext()
	}
	if s.inflight != 0 || s.Pending() != 0 {
		t.Fatal("scheduler not drained")
	}
}

func TestOversizedSubStartsWhenIdle(t *testing.T) {
	net := &fakeNet{}
	s := New(Policy{Name: "x", PartitionUnit: 0, CreditBytes: 10, Priority: LayerPriority})
	task := mkTask(net, 0, 1000) // single sub larger than total credit
	s.Enqueue(task)
	s.NotifyReady(task)
	if len(net.started) != 1 {
		t.Fatal("oversized sub must start when nothing is in flight")
	}
	// A second oversized task must wait for the first.
	task2 := mkTask(net, 1, 1000)
	s.Enqueue(task2)
	s.NotifyReady(task2)
	if len(net.started) != 1 {
		t.Fatal("second oversized sub must wait")
	}
	net.finishNext()
	if len(net.started) != 2 {
		t.Fatal("second oversized sub did not start after first finished")
	}
	net.finishNext()
}

func TestOnFinished(t *testing.T) {
	net := &fakeNet{}
	s := New(ByteScheduler(100, 0))
	finished := 0
	task := mkTask(net, 0, 300)
	task.OnFinished = func() { finished++ }
	s.Enqueue(task)
	s.NotifyReady(task)
	net.finishNext()
	net.finishNext()
	if finished != 0 {
		t.Fatal("OnFinished fired before all subs completed")
	}
	net.finishNext()
	if finished != 1 {
		t.Fatalf("OnFinished fired %d times, want 1", finished)
	}
}

func TestSynchronousDone(t *testing.T) {
	// A substrate that completes synchronously inside Start must not
	// break the scheduling loop or the credit accounting.
	var started int
	s := New(ByteScheduler(10, 10))
	task := &Task{
		Tensor: tensor.Tensor{Layer: 0, Name: "w", Bytes: 100},
		Start:  func(sub tensor.Sub, done func()) { started++; done() },
	}
	s.Enqueue(task)
	s.NotifyReady(task)
	if started != 10 {
		t.Fatalf("started = %d, want 10", started)
	}
	if s.inflight != 0 || s.credit != 10 {
		t.Fatalf("leak: inflight=%d credit=%d", s.inflight, s.credit)
	}
}

func TestMisusePanics(t *testing.T) {
	net := &fakeNet{}
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	check("nil start", func() { New(FIFO()).Enqueue(&Task{}) })
	check("start and starter", func() { New(FIFO()).Enqueue(&Task{Start: net.start, Starter: net}) })
	check("double enqueue", func() {
		s := New(FIFO())
		task := mkTask(net, 0, 10)
		s.Enqueue(task)
		s.Enqueue(task)
	})
	check("ready before enqueue", func() {
		New(FIFO()).NotifyReady(mkTask(net, 0, 10))
	})
	check("double ready", func() {
		s := New(FIFO())
		task := mkTask(net, 0, 10)
		s.Enqueue(task)
		s.NotifyReady(task)
		s.NotifyReady(task)
	})
	check("double done", func() {
		s := New(FIFO())
		n := &fakeNet{}
		task := mkTask(n, 0, 10)
		s.Enqueue(task)
		s.NotifyReady(task)
		done := n.dones[0]
		done()
		done()
	})
	check("double done on a handle", func() {
		s := New(FIFO())
		n := &fakeNet{handles: true}
		task := mkTask(n, 0, 10)
		s.Enqueue(task)
		s.NotifyReady(task)
		n.dones[0]()
		n.dones[0]()
	})
	// Two partitions under a one-partition credit: the second waits queued.
	queued := func() (*fakeNet, *Task) {
		s, n := New(ByteScheduler(4, 4)), &fakeNet{handles: true}
		task := mkTask(n, 0, 8)
		s.Enqueue(task)
		s.NotifyReady(task)
		return n, task
	}
	check("done on a queued partition", func() { _, task := queued(); task.handles[1].Done(nil) })
	check("sent on a queued partition", func() { _, task := queued(); task.handles[1].Sent() })
	check("enqueue with a partition unresolved", func() {
		n, task := queued()
		n.finishNext()
		New(FIFO()).Enqueue(task)
	})
	// A Done kept from before the task was enqueued again lands on a handle
	// of the reused slab that has not started.
	check("stale done after the slab was reused", func() {
		n, task := queued()
		s := task.handles[0].s
		n.finishNext()
		stale := n.dones[0]
		n.finishNext()
		s.Enqueue(task)
		s.NotifyReady(task)
		stale()
	})
}

// TestEnqueueAgainAfterResolved: a resolved task is enqueued again with a
// fresh outcome and its handle slab reused, on both schedulers.
func TestEnqueueAgainAfterResolved(t *testing.T) {
	n := &fakeNet{handles: true}
	s := New(ByteScheduler(4, 4))
	finished := 0
	task := mkTask(n, 0, 8)
	task.OnFinished = func() { finished++ }
	for round := 1; round <= 3; round++ {
		s.Enqueue(task)
		s.NotifyReady(task)
		slab := &task.handles[0]
		for len(n.dones) > 0 {
			n.finishNext()
		}
		if finished != round || task.Err() != nil || &task.handles[0] != slab {
			t.Fatalf("round %d: finished %d, err %v, slab reused %v", round, finished, task.Err(), &task.handles[0] == slab)
		}
	}
	if st := s.Stats(); st.TasksEnqueued != 3 || st.SubsFinished != 6 || s.credit != 4 {
		t.Fatalf("stats %+v, credit %d", st, s.credit)
	}

	a := NewAsync(FIFO())
	defer a.Shutdown()
	dones := make(chan func(), 1)
	async := &Task{Tensor: tensor.Tensor{Name: "w", Bytes: 8}, Start: func(_ tensor.Sub, done func()) { dones <- done }}
	if err := a.Enqueue(async); err != nil {
		t.Fatal(err)
	}
	if err := a.NotifyReady(async); err != nil {
		t.Fatal(err)
	}
	if err := a.Enqueue(async); err == nil {
		t.Fatal("async scheduler enqueued an unresolved task again")
	}
	(<-dones)()
	if err := a.Enqueue(async); err != nil {
		t.Fatalf("async scheduler refused a resolved task: %v", err)
	}
}

// doneStarter resolves every partition as it starts.
type doneStarter struct{}

func (doneStarter) StartSub(h *Handle) { h.Done(nil) }

// TestReenqueueAllocatesNothing: a task enqueued again at the unit it was
// last cut at keeps its partitions and handle slab, and the AsyncScheduler
// starts each partition on a goroutine bound once per handle, so a pass of
// a reused split task allocates nothing; a new unit cuts it afresh.
func TestReenqueueAllocatesNothing(t *testing.T) {
	a := NewAsync(ByteScheduler(4, 0))
	defer a.Shutdown()
	finished := make(chan struct{}, 1)
	task := &Task{Tensor: tensor.Tensor{Name: "w", Bytes: 16}, Starter: doneStarter{}}
	task.OnFinished = func() { finished <- struct{}{} }
	pass := func() {
		if err := a.Enqueue(task); err != nil {
			t.Fatal(err)
		}
		if err := a.NotifyReady(task); err != nil {
			t.Fatal(err)
		}
		<-finished
	}
	pass()
	subs := task.Subs()
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Fatalf("a pass of a re-enqueued 4-partition task allocates %v times, want 0", allocs)
	}
	if len(task.Subs()) != 4 || &task.Subs()[0] != &subs[0] {
		t.Fatal("a task re-enqueued at its unit was cut again")
	}
	if err := a.SetParams(8, 0); err != nil {
		t.Fatal(err)
	}
	pass()
	if len(task.Subs()) != 2 || &task.Subs()[0] == &subs[0] {
		t.Fatalf("at a new unit the task kept its cut: %v", task.Subs())
	}
}

func TestStatsCounters(t *testing.T) {
	net := &fakeNet{}
	s := New(ByteScheduler(100, 200))
	// Layer 1 arrives first with 4 partitions: two start (credit 200),
	// two wait. Layer 0 then arrives; its partitions must be released
	// ahead of the two waiting layer-1 partitions.
	for _, task := range []*Task{mkTask(net, 1, 400), mkTask(net, 0, 200)} {
		s.Enqueue(task)
		s.NotifyReady(task)
	}
	for len(net.dones) > 0 {
		net.finishNext()
	}
	st := s.Stats()
	if st.TasksEnqueued != 2 || st.SubsStarted != 6 || st.SubsFinished != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxInflightBytes != 200 {
		t.Fatalf("MaxInflightBytes = %d, want 200", st.MaxInflightBytes)
	}
	if st.Preemptions == 0 {
		t.Fatal("layer 0 jumped layer 1; preemption expected")
	}
}

// Property: with every task ready up front and single-sub tasks completing
// one at a time, the start order is exactly (priority, arrival) order after
// the first (which starts before the rest arrive).
func TestPriorityOrderProperty(t *testing.T) {
	bothStartPaths(t, testPriorityOrderProperty)
}

func testPriorityOrderProperty(t *testing.T, handles bool) {
	f := func(layersRaw []uint8) bool {
		if len(layersRaw) == 0 {
			return true
		}
		net := &fakeNet{handles: handles}
		s := New(Policy{Name: "t", CreditBytes: 1, Priority: LayerPriority})
		for _, l := range layersRaw {
			task := mkTask(net, int(l), 1000) // every sub exceeds credit: pure serial
			s.Enqueue(task)
			s.NotifyReady(task)
		}
		for len(net.dones) > 0 {
			net.finishNext()
		}
		if len(net.started) != len(layersRaw) {
			return false
		}
		// First start is the first arrival; the rest must be sorted by
		// (layer, arrival seq).
		rest := net.started[1:]
		want := append([]uint8(nil), layersRaw[1:]...)
		sort.SliceStable(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range rest {
			if rest[i].Parent.Layer != int(want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: credit accounting is conserved — after draining, available
// credit equals the configured credit and nothing is in flight, for any
// partition/credit combination.
func TestCreditConservationProperty(t *testing.T) {
	bothStartPaths(t, testCreditConservationProperty)
}

func testCreditConservationProperty(t *testing.T, handles bool) {
	f := func(unitRaw, creditRaw uint8, sizes []uint16) bool {
		unit := int64(unitRaw)%500 + 64 // keep partition counts bounded
		credit := int64(creditRaw)%1000 + 1
		if len(sizes) > 16 {
			sizes = sizes[:16]
		}
		net := &fakeNet{handles: handles}
		s := New(Policy{Name: "t", PartitionUnit: unit, CreditBytes: credit, Priority: LayerPriority})
		total := 0
		for i, raw := range sizes {
			task := mkTask(net, i, int64(raw)+1)
			total += len(tensor.Partition(task.Tensor, unit))
			s.Enqueue(task)
			s.NotifyReady(task)
		}
		for len(net.dones) > 0 {
			net.finishNext()
		}
		return len(net.started) == total &&
			s.inflight == 0 &&
			s.Pending() == 0 &&
			s.credit == credit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
