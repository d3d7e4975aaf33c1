package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bytescheduler/internal/tensor"
)

// TestLifecycleProperty drives seeded programs of Start, StartErr and
// Starter tasks through both the synchronous and the async scheduler. The
// test loop plays the substrate: it picks a random started partition and
// either calls Sent (Starter tasks only) or Done with nil or an error, so
// split-phase partitions (Sent then Done(nil|err)) mix with Done(err)
// without Sent, under retry budgets 0–2 and tight or unlimited credit. A
// task is enqueued again, up to twice, once it resolves; enqueueing it
// before then is refused (a panic, or an error from the async scheduler)
// and changes nothing. Against its own model of what each call means, it
// asserts after every step that credit rose at Sent and nowhere else, and
// at quiescence that: the credit is whole and nothing is queued; every
// partition resolved exactly once per round, a wait-phase failure
// (Done(err) after Sent) without a retry; OnFinished fired once per round,
// inside its last partition's Done, with Err the round's first permanent
// failure; and Stats count exactly the model's starts, successes, failures
// and retries, with SubsStarted == SubsFinished + Failures + Retries.
func TestLifecycleProperty(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		for _, async := range []bool{false, true} {
			runLifecycle(t, seed, async)
		}
	}
}

// lcAttempt is one started partition attempt, waiting for the test loop.
type lcAttempt struct {
	task, sub, try int
	bytes          int64
	h              *Handle     // Starter tasks: Sent is available
	finish         func(error) // the attempt's Done
	sent           bool
}

// lcPart is the model of one partition.
type lcPart struct {
	tries    int // Done(err) without Sent so far, each retried
	resolved bool
}

// lcRig is one program's substrate and model. mu guards everything below
// it: async launches record attempts from their own goroutines.
type lcRig struct {
	tasks []*Task

	mu                                   sync.Mutex
	pending                              []*lcAttempt
	parts                                [][]lcPart
	resolvedParts                        []int   // by task, this round
	fired                                []int   // OnFinished calls by task
	firstErr                             []error // first permanent failure by task, this round
	unresolved                           []bool  // by task: enqueued, a partition unresolved
	justResolved                         []int   // tasks resolved since the loop last looked
	inflight                             int     // started attempts holding credit
	inflightBytes                        int64
	started, finished, failures, retries uint64
	bad                                  []string
}

func (r *lcRig) record(task int, sub tensor.Sub, h *Handle, finish func(error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &r.parts[task][sub.Index]
	if p.resolved {
		r.bad = append(r.bad, fmt.Sprintf("%s started again after it resolved", sub))
	}
	r.pending = append(r.pending, &lcAttempt{task: task, sub: sub.Index, try: p.tries, bytes: sub.Bytes, h: h, finish: finish})
	r.inflight++
	r.inflightBytes += sub.Bytes
	r.started++
}

// lcStarter is a Starter task's record.
type lcStarter struct {
	r    *lcRig
	task int
}

func (s lcStarter) StartSub(h *Handle) { s.r.record(s.task, h.Sub(), h, h.Done) }

func runLifecycle(t *testing.T, seed int64, async bool) {
	rng := rand.New(rand.NewSource(seed))
	unit := 4 * (1 + rng.Int63n(3))
	pol := Policy{Name: "lifecycle", PartitionUnit: unit, Priority: LayerPriority, MaxRetries: rng.Intn(3)}
	if rng.Intn(2) == 0 {
		pol.CreditBytes = []int64{1, unit, 2 * unit}[rng.Intn(3)]
	}
	name := fmt.Sprintf("seed %d async %v (unit %d, credit %d, retries %d)", seed, async, unit, pol.CreditBytes, pol.MaxRetries)

	r := &lcRig{}
	var s *Scheduler
	var a *AsyncScheduler
	if async {
		a = NewAsync(pol)
		s = a.s
	} else {
		s = New(pol)
	}
	// settled runs fn on the scheduler once every launched partition has
	// reached the rig, under the async lock.
	settled := func(fn func()) {
		if a == nil {
			fn()
			return
		}
		for {
			a.mu.Lock()
			if a.active == 0 {
				fn()
				a.mu.Unlock()
				return
			}
			a.mu.Unlock()
			runtime.Gosched()
		}
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", name, fmt.Sprintf(format, args...))
	}
	check := func() {
		t.Helper()
		var msg string
		settled(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			switch {
			case len(r.bad) > 0:
				msg = r.bad[0]
			case s.inflight != r.inflight:
				msg = fmt.Sprintf("%d partitions hold credit, model %d", s.inflight, r.inflight)
			case s.limited && s.credit != pol.CreditBytes-r.inflightBytes:
				msg = fmt.Sprintf("credit %d, model %d", s.credit, pol.CreditBytes-r.inflightBytes)
			}
		})
		if msg != "" {
			fail("%s", msg)
		}
	}

	n := 2 + rng.Intn(5)
	r.parts = make([][]lcPart, n)
	r.resolvedParts, r.fired, r.firstErr = make([]int, n), make([]int, n), make([]error, n)
	r.unresolved = make([]bool, n)
	// enqueue (re-)registers task i with a fresh model of its partitions.
	enqueue := func(i int) {
		tk := r.tasks[i]
		if a != nil {
			if err := a.Enqueue(tk); err != nil {
				fail("enqueue: %v", err)
			}
		} else {
			s.Enqueue(tk)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		r.parts[i] = make([]lcPart, len(tk.Subs()))
		r.resolvedParts[i], r.firstErr[i], r.unresolved[i] = 0, nil, true
	}
	// refused checks that enqueueing unresolved task i again is refused.
	refused := func(i int) {
		tk := r.tasks[i]
		if a != nil {
			if err := a.Enqueue(tk); err == nil {
				fail("async scheduler enqueued unresolved task %d again", i)
			}
			return
		}
		defer func() {
			if recover() == nil {
				fail("scheduler enqueued unresolved task %d again", i)
			}
		}()
		s.Enqueue(tk)
	}
	for i := 0; i < n; i++ {
		tk := &Task{Tensor: tensor.Tensor{Layer: rng.Intn(4), Name: fmt.Sprintf("t%d", i), Bytes: 1 + rng.Int63n(4*unit)}}
		switch rng.Intn(3) {
		case 0:
			tk.Starter = lcStarter{r, i}
		case 1:
			tk.StartErr = func(sub tensor.Sub, done func(error)) { r.record(i, sub, nil, done) }
		default:
			tk.Start = func(sub tensor.Sub, done func()) { r.record(i, sub, nil, func(error) { done() }) }
		}
		tk.OnFinished = func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.fired[i]++
			if r.resolvedParts[i] != len(tk.Subs()) {
				r.bad = append(r.bad, fmt.Sprintf("task %d finished with %d of %d partitions resolved", i, r.resolvedParts[i], len(tk.Subs())))
			}
			if tk.Err() != r.firstErr[i] {
				r.bad = append(r.bad, fmt.Sprintf("task %d finished with Err %v, want %v", i, tk.Err(), r.firstErr[i]))
			}
			r.unresolved[i] = false
			r.justResolved = append(r.justResolved, i)
		}
		r.tasks = append(r.tasks, tk)
		enqueue(i)
	}
	rounds := make([]int, n) // by task: rounds left, this one included
	for i := range rounds {
		rounds[i] = 1 + rng.Intn(3)
	}
	total := slices.Clone(rounds)

	var toReady []int // enqueued tasks not yet made ready, in order
	for i := 0; i < n; i++ {
		toReady = append(toReady, i)
	}
	for {
		check()
		r.mu.Lock()
		slices.SortFunc(r.pending, func(x, y *lcAttempt) int {
			return cmp.Or(cmp.Compare(x.task, y.task), cmp.Compare(x.sub, y.sub), cmp.Compare(x.try, y.try))
		})
		idle := len(r.pending) == 0
		r.mu.Unlock()
		if len(toReady) > 0 && (idle || rng.Intn(3) == 0) {
			if a != nil {
				if err := a.NotifyReady(r.tasks[toReady[0]]); err != nil {
					fail("ready: %v", err)
				}
			} else {
				s.NotifyReady(r.tasks[toReady[0]])
			}
			toReady = toReady[1:]
			continue
		}
		k := rng.Intn(n)
		r.mu.Lock()
		unresolved := r.unresolved[k]
		r.mu.Unlock()
		if unresolved && rng.Intn(8) == 0 {
			refused(k)
			continue
		}
		if idle {
			break
		}
		r.mu.Lock()
		i := rng.Intn(len(r.pending))
		at := r.pending[i]
		if at.h != nil && !at.sent && rng.Intn(2) == 0 {
			at.sent = true
			r.inflight--
			r.inflightBytes -= at.bytes
			r.mu.Unlock()
			at.h.Sent()
			continue
		}
		var err error
		if r.tasks[at.task].Start == nil && rng.Intn(3) == 0 {
			err = fmt.Errorf("task %d sub %d try %d failed (sent %v)", at.task, at.sub, at.try, at.sent)
		}
		r.pending = slices.Delete(r.pending, i, i+1)
		if !at.sent {
			r.inflight--
			r.inflightBytes -= at.bytes
		}
		p := &r.parts[at.task][at.sub]
		switch {
		case err == nil:
			r.finished++
			p.resolved = true
		case !at.sent && p.tries < pol.MaxRetries:
			r.retries++
			p.tries++
		default:
			r.failures++
			p.resolved = true
			if r.firstErr[at.task] == nil {
				r.firstErr[at.task] = err
			}
		}
		if p.resolved {
			r.resolvedParts[at.task]++
		}
		r.mu.Unlock()
		at.finish(err)
		// A resolved task with rounds left is enqueued again at once, so a
		// stale handle of its last round may still sit in the arrivals.
		for _, i := range r.justResolved {
			if rounds[i]--; rounds[i] > 0 {
				enqueue(i)
				toReady = append(toReady, i)
			}
		}
		r.justResolved = r.justResolved[:0]
	}

	if a != nil {
		a.Shutdown()
	}
	var queued, holding, open int
	var credit int64
	settled(func() { queued, holding, open, credit = s.Pending(), s.inflight, s.open, s.credit })
	if queued != 0 || holding != 0 || open != 0 {
		fail("quiescent with %d queued, %d holding credit, %d unresolved", queued, holding, open)
	}
	if s.limited && credit != pol.CreditBytes {
		fail("credit %d at quiescence, want %d", credit, pol.CreditBytes)
	}
	for i, tk := range r.tasks {
		if r.fired[i] != total[i] {
			fail("task %d OnFinished fired %d times over %d rounds", i, r.fired[i], total[i])
		}
		if tk.Err() != r.firstErr[i] {
			fail("task %d Err = %v, want %v", i, tk.Err(), r.firstErr[i])
		}
	}
	st := s.Stats()
	want := Stats{SubsStarted: r.started, SubsFinished: r.finished, Failures: r.failures, Retries: r.retries}
	got := Stats{SubsStarted: st.SubsStarted, SubsFinished: st.SubsFinished, Failures: st.Failures, Retries: st.Retries}
	if got != want {
		fail("stats %+v, model %+v", got, want)
	}
	if st.SubsStarted != st.SubsFinished+st.Failures+st.Retries {
		fail("SubsStarted %d != SubsFinished %d + Failures %d + Retries %d", st.SubsStarted, st.SubsFinished, st.Failures, st.Retries)
	}
}
