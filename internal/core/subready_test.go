package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bytescheduler/internal/tensor"
)

// subCase is one random per-partition readiness program: tensors with
// caller-made partitions, a credit window, and the order in which the
// partitions become ready. How ready steps interleave with completions is
// drawn from the seed as the run goes, so two runs that behave alike stay
// on the same program.
type subCase struct {
	seed    int64
	credit  int64
	tensors []tensor.Tensor
	subs    [][]tensor.Sub // by tensor; shared by every task of it
	order   []partRef      // readiness order
}

type partRef struct{ t, i int }

func newSubCase(seed int64) subCase {
	rng := rand.New(rand.NewSource(seed))
	c := subCase{seed: seed, credit: []int64{0, 1 << 10, 8 << 10, 32 << 10}[rng.Intn(4)]}
	for k := 1 + rng.Intn(5); k > 0; k-- {
		// Few layers, so priority ties are common and arrival order decides.
		tt := tensor.Tensor{Layer: rng.Intn(3), Name: fmt.Sprint("t", len(c.tensors)), Bytes: 1 + rng.Int63n(64<<10)}
		unit := []int64{0, 4 << 10, 16 << 10, 1 + rng.Int63n(32<<10)}[rng.Intn(4)]
		c.tensors = append(c.tensors, tt)
		c.subs = append(c.subs, tensor.Partition(tt, unit))
		for i := range c.subs[len(c.subs)-1] {
			c.order = append(c.order, partRef{len(c.tensors) - 1, i})
		}
	}
	rng.Shuffle(len(c.order), func(a, b int) { c.order[a], c.order[b] = c.order[b], c.order[a] })
	return c
}

// started is one partition release as a run saw it.
type started struct {
	ref   partRef
	bytes int64
	h     *Handle
}

// subRun records releases; inflight is in start order.
type subRun struct{ starts, inflight []started }

// partStarter starts one task's partitions; i < 0 reads the partition's
// index from its Sub, for a task with more than one.
type partStarter struct {
	r    *subRun
	t, i int
}

func (p partStarter) StartSub(h *Handle) {
	i := p.i
	if i < 0 {
		i = h.Sub().Index
	}
	st := started{partRef{p.t, i}, h.Sub().Bytes, h}
	p.r.starts = append(p.r.starts, st)
	p.r.inflight = append(p.r.inflight, st)
}

// subOutcome is what the two runs must agree on.
type subOutcome struct {
	starts        []string
	preemptions   uint64
	maxQueue      int
	maxInflight   int64
	creditAtRest  int64
	subsFinished  uint64
	finishedCalls []int // per tensor; per-partition runs leave it nil
}

// run drives the case on one scheduler. perPart enqueues one single-partition
// task per partition, sized to it, the way pull partitions used to be
// scheduled; otherwise each tensor is one task over the shared partitions,
// made ready one partition at a time.
func (c subCase) run(t *testing.T, perPart bool) subOutcome {
	s := New(Policy{CreditBytes: c.credit, Priority: LayerPriority})
	r := &subRun{}
	done := make([]int, len(c.tensors)) // completions handed back, per tensor
	var out subOutcome
	var ready func(partRef)
	if perPart {
		tasks := make([][]Task, len(c.tensors))
		for k, subs := range c.subs {
			tasks[k] = make([]Task, len(subs))
			for i, sub := range subs {
				task := &tasks[k][i]
				task.Tensor = tensor.Tensor{Layer: sub.Parent.Layer, Name: sub.Parent.Name, Bytes: sub.Bytes}
				task.Starter = partStarter{r, k, i}
				s.Enqueue(task)
			}
		}
		ready = func(p partRef) { s.NotifyReady(&tasks[p.t][p.i]) }
	} else {
		out.finishedCalls = make([]int, len(c.tensors))
		tasks := make([]Task, len(c.tensors))
		for k := range tasks {
			k := k
			tasks[k] = Task{Tensor: c.tensors[k], Starter: partStarter{r, k, -1}, OnFinished: func() {
				if done[k] != len(c.subs[k]) {
					t.Fatalf("seed %d: tensor %d finished after %d of %d partitions", c.seed, k, done[k], len(c.subs[k]))
				}
				out.finishedCalls[k]++
			}}
			s.EnqueueSubs(&tasks[k], c.subs[k])
		}
		ready = func(p partRef) { s.NotifySubReady(&tasks[p.t], p.i) }
	}
	rng := rand.New(rand.NewSource(c.seed*7 + 1))
	next := 0
	for next < len(c.order) || len(r.inflight) > 0 {
		if next < len(c.order) && (len(r.inflight) == 0 || rng.Intn(3) > 0) {
			ready(c.order[next])
			next++
			continue
		}
		j := rng.Intn(len(r.inflight))
		st := r.inflight[j]
		r.inflight = slices.Delete(r.inflight, j, j+1)
		done[st.ref.t]++
		st.h.Done(nil) // may start more, appending to inflight
	}
	for _, st := range r.starts {
		out.starts = append(out.starts, fmt.Sprintf("%s[%d]:%d", c.tensors[st.ref.t].Name, st.ref.i, st.bytes))
	}
	stats := s.Stats()
	out.preemptions, out.maxQueue, out.maxInflight = stats.Preemptions, stats.MaxQueueLen, stats.MaxInflightBytes
	out.creditAtRest, out.subsFinished = s.credit, stats.SubsFinished
	return out
}

// TestSubReadyMatchesPerPartitionTasks: over random tensors, partitions,
// credit windows, readiness orders and interleaved completions, one task per
// tensor whose partitions are made ready one by one (EnqueueSubs +
// NotifySubReady) releases exactly what one single-partition task per
// partition does — the same partitions with the same bytes in the same
// order, the same preemptions, queue and in-flight high-water marks, and
// the whole credit back at rest — and fires each tensor's OnFinished exactly
// once, after its last partition.
func TestSubReadyMatchesPerPartitionTasks(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		c := newSubCase(seed)
		got, want := c.run(t, false), c.run(t, true)
		for k, n := range got.finishedCalls {
			if n != 1 {
				t.Fatalf("seed %d: tensor %d OnFinished fired %d times", seed, k, n)
			}
		}
		got.finishedCalls = nil
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d (credit %d):\n got %+v\nwant %+v", seed, c.credit, got, want)
		}
		// An unlimited scheduler (credit 0) never books credit, so it rests at 0.
		if got.creditAtRest != c.credit || got.subsFinished != uint64(len(c.order)) {
			t.Fatalf("seed %d: %d credit at rest of %d, %d of %d partitions finished", seed, got.creditAtRest, c.credit, got.subsFinished, len(c.order))
		}
	}
}

func TestSubReadyMisusePanics(t *testing.T) {
	net := &fakeNet{handles: true}
	subs := tensor.Partition(tensor.Tensor{Name: "w", Bytes: 10}, 4)
	enqueued := func() (*Scheduler, *Task) {
		s, task := New(FIFO()), mkTask(net, 0, 10)
		s.EnqueueSubs(task, subs)
		return s, task
	}
	for name, fn := range map[string]func(){
		"no partitions":        func() { New(FIFO()).EnqueueSubs(mkTask(net, 0, 10), nil) },
		"ready before enqueue": func() { New(FIFO()).NotifySubReady(mkTask(net, 0, 10), 0) },
		"index past the end":   func() { s, task := enqueued(); s.NotifySubReady(task, len(subs)) },
		"negative index":       func() { s, task := enqueued(); s.NotifySubReady(task, -1) },
		"partition ready twice": func() {
			s, task := enqueued()
			s.NotifySubReady(task, 1)
			s.NotifySubReady(task, 1)
		},
		"whole task after one partition": func() {
			s, task := enqueued()
			s.NotifySubReady(task, 2)
			s.NotifyReady(task)
		},
		"partition after whole task": func() {
			s, task := enqueued()
			s.NotifyReady(task)
			s.NotifySubReady(task, 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
