package core

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bytescheduler/internal/tensor"
)

// refItem is one queued partition in the reference scheduler.
type refItem struct {
	prio     int64
	seq      uint64
	ref      partRef
	attempts int
	started  bool
}

// refHeap is the ready queue as container/heap ordered by (prio, seq);
// refArrivals is the same items ordered by arrival seq alone.
type refHeap []*refItem

func (q refHeap) Len() int { return len(q) }
func (q refHeap) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q refHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refHeap) Push(x any)   { *q = append(*q, x.(*refItem)) }
func (q *refHeap) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

type refArrivals struct{ refHeap }

func (q refArrivals) Less(i, j int) bool { return q.refHeap[i].seq < q.refHeap[j].seq }

// refScheduler is Algorithm 1 over two container/heap queues, with the
// arrival heap lazily pruned of started items for the preemption counter.
type refScheduler struct {
	c           queueCase
	credit      int64
	inflight    int
	seq         uint64
	queue       refHeap
	arrivals    refArrivals
	preemptions uint64
	retries     uint64
	failures    uint64
	run         *queueRun
	held        []*refItem // started, in start order, as run.inflight
	unresolved  []int      // by tensor: partitions of its current round left
}

func (s *refScheduler) bytes(it *refItem) int64 { return s.c.subs[it.ref.t][it.ref.i].Bytes }

func (s *refScheduler) push(ref partRef, attempts int) {
	s.seq++
	it := &refItem{prio: int64(s.c.tensors[ref.t].Layer), seq: s.seq, ref: ref, attempts: attempts}
	if s.c.fifo {
		it.prio = int64(s.seq)
	}
	heap.Push(&s.queue, it)
	heap.Push(&s.arrivals, it)
}

func (s *refScheduler) schedule() {
	for s.queue.Len() > 0 {
		head := s.queue[0]
		if s.c.credit > 0 && s.credit < s.bytes(head) && s.inflight > 0 {
			break
		}
		heap.Pop(&s.queue)
		head.started = true
		for s.arrivals.Len() > 0 && s.arrivals.refHeap[0].started {
			heap.Pop(&s.arrivals)
		}
		if s.arrivals.Len() > 0 && s.arrivals.refHeap[0].seq < head.seq {
			s.preemptions++
		}
		s.credit -= s.bytes(head)
		s.inflight++
		s.held = append(s.held, head)
		s.run.started(head.ref, s.bytes(head), head.attempts, nil)
	}
}

func (s *refScheduler) done(j int, err error) {
	it := s.held[j]
	s.held = slices.Delete(s.held, j, j+1)
	s.credit += s.bytes(it)
	s.inflight--
	switch {
	case err != nil && it.attempts < s.c.maxRetries:
		s.retries++
		s.push(it.ref, it.attempts+1)
	case err != nil:
		s.failures++
		fallthrough
	default:
		if s.unresolved[it.ref.t]--; s.unresolved[it.ref.t] == 0 {
			s.unresolved[it.ref.t] = len(s.c.subs[it.ref.t])
			s.run.resolved = append(s.run.resolved, it.ref.t)
		}
	}
	s.schedule()
}

// queueCase is one random program: tensors, each made ready whole or one
// partition at a time, under a credit window and a retry budget, and each
// enqueued again for up to two more rounds as soon as it resolves; which
// completion comes next, whether it fails and where a later round's
// readiness steps fall among those still to come is drawn as the run goes.
type queueCase struct {
	seed       int64
	credit     int64
	fifo       bool
	maxRetries int
	tensors    []tensor.Tensor
	subs       [][]tensor.Sub
	order      []partRef // first-round readiness steps; i < 0 readies the whole tensor
	rounds     []int     // by tensor: how many times it is enqueued again
}

func newQueueCase(seed int64) queueCase {
	rng := rand.New(rand.NewSource(seed))
	c := queueCase{
		seed:       seed,
		credit:     []int64{0, 1 << 10, 8 << 10, 32 << 10}[rng.Intn(4)],
		fifo:       rng.Intn(5) == 0,
		maxRetries: rng.Intn(3),
	}
	for k := 1 + rng.Intn(8); k > 0; k-- {
		tt := tensor.Tensor{Layer: rng.Intn(4), Name: fmt.Sprint("t", len(c.tensors)), Bytes: 1 + rng.Int63n(64<<10)}
		unit := []int64{0, 4 << 10, 16 << 10, 1 + rng.Int63n(32<<10)}[rng.Intn(4)]
		c.tensors = append(c.tensors, tt)
		c.subs = append(c.subs, tensor.Partition(tt, unit))
		if rng.Intn(2) == 0 {
			c.order = append(c.order, partRef{len(c.tensors) - 1, -1})
			continue
		}
		for i := range c.subs[len(c.subs)-1] {
			c.order = append(c.order, partRef{len(c.tensors) - 1, i})
		}
	}
	rng.Shuffle(len(c.order), func(a, b int) { c.order[a], c.order[b] = c.order[b], c.order[a] })
	for range c.tensors {
		c.rounds = append(c.rounds, rng.Intn(3))
	}
	return c
}

// steps returns tensor k's first-round readiness steps.
func (c queueCase) steps(k int) []partRef {
	var out []partRef
	for _, p := range c.order {
		if p.t == k {
			out = append(out, p)
		}
	}
	return out
}

// queueRun records releases, what is in flight, in start order, and the
// tensors resolved since the driver last looked; the reference has no
// handles and keeps its own started items.
type queueRun struct {
	starts   []string
	inflight []*Handle
	resolved []int
}

func (r *queueRun) started(ref partRef, bytes int64, attempt int, h *Handle) {
	r.starts = append(r.starts, fmt.Sprintf("t%d[%d]:%d#%d", ref.t, ref.i, bytes, attempt))
	r.inflight = append(r.inflight, h)
}

// queueStarter records one tensor's partition starts on the real scheduler.
type queueStarter struct {
	r *queueRun
	t int
}

func (q queueStarter) StartSub(h *Handle) {
	q.r.started(partRef{q.t, h.Sub().Index}, h.Sub().Bytes, h.attempts, h)
}

// run drives the case on the real scheduler, or on the reference, and
// returns the release order and counters.
func (c queueCase) run(ref bool) string {
	r := &queueRun{}
	var ready func(p partRef)
	var done func(j int, h *Handle, err error)
	var again func(k int)
	var counters func() (preemptions, retries, failures uint64)
	if ref {
		s := &refScheduler{c: c, credit: c.credit, run: r}
		for _, subs := range c.subs {
			s.unresolved = append(s.unresolved, len(subs))
		}
		ready = func(p partRef) {
			if p.i < 0 {
				for i := range c.subs[p.t] {
					s.push(partRef{p.t, i}, 0)
				}
			} else {
				s.push(p, 0)
			}
			s.schedule()
		}
		done = func(j int, _ *Handle, err error) { s.done(j, err) }
		again = func(int) {}
		counters = func() (uint64, uint64, uint64) { return s.preemptions, s.retries, s.failures }
	} else {
		p := Policy{CreditBytes: c.credit, Priority: LayerPriority, MaxRetries: c.maxRetries}
		if c.fifo {
			p.Priority = nil
		}
		s := New(p)
		tasks := make([]Task, len(c.tensors))
		for k := range tasks {
			tasks[k] = Task{Tensor: c.tensors[k], Starter: queueStarter{r, k},
				OnFinished: func() { r.resolved = append(r.resolved, k) }}
			s.EnqueueSubs(&tasks[k], c.subs[k])
		}
		ready = func(p partRef) {
			if p.i < 0 {
				s.NotifyReady(&tasks[p.t])
			} else {
				s.NotifySubReady(&tasks[p.t], p.i)
			}
		}
		done = func(_ int, h *Handle, err error) { h.Done(err) }
		again = func(k int) { s.EnqueueSubs(&tasks[k], c.subs[k]) }
		counters = func() (uint64, uint64, uint64) {
			st := s.Stats()
			return st.Preemptions, st.Retries, st.Failures
		}
	}
	rng := rand.New(rand.NewSource(c.seed*7 + 1))
	order, rounds := slices.Clone(c.order), slices.Clone(c.rounds)
	next := 0
	for next < len(order) || len(r.inflight) > 0 {
		if next < len(order) && (len(r.inflight) == 0 || rng.Intn(3) > 0) {
			ready(order[next])
			next++
			continue
		}
		j := rng.Intn(len(r.inflight))
		var err error
		if rng.Intn(4) == 0 {
			err = errors.New("substrate failed")
		}
		h := r.inflight[j]
		r.inflight = slices.Delete(r.inflight, j, j+1)
		done(j, h, err) // may start more, appending to inflight
		// A resolved tensor with rounds left is enqueued again, its handle
		// slab reused, while its old handles may still sit in arrivals.
		for _, k := range r.resolved {
			if rounds[k] == 0 {
				continue
			}
			rounds[k]--
			again(k)
			for _, p := range c.steps(k) {
				order = slices.Insert(order, next+rng.Intn(len(order)-next+1), p)
			}
		}
		r.resolved = r.resolved[:0]
	}
	p, rt, f := counters()
	return fmt.Sprintf("%v preemptions=%d retries=%d failures=%d", r.starts, p, rt, f)
}

// TestQueuesMatchHeapReference: over random programs of whole-tensor and
// per-partition readiness, successful and failed completions with retries,
// tasks enqueued again once they resolve, FIFO and layer priority, tight and
// unlimited credit, the scheduler's typed ready heap and arrival FIFO
// release exactly what two container/heap queues release, in the same
// order, with the same preemption, retry and failure counts.
func TestQueuesMatchHeapReference(t *testing.T) {
	preempted := 0
	for seed := int64(1); seed <= 500; seed++ {
		c := newQueueCase(seed)
		got, want := c.run(false), c.run(true)
		if got != want {
			t.Fatalf("seed %d (credit %d, fifo %v, retries %d):\n got %s\nwant %s", seed, c.credit, c.fifo, c.maxRetries, got, want)
		}
		if !strings.Contains(want, " preemptions=0 ") {
			preempted++
		}
	}
	if preempted < 100 {
		t.Fatalf("only %d of 500 programs preempted", preempted)
	}
}
