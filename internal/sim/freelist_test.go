package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// program is a random, self-extending event program, run once on the real
// engine and once on a sort-based reference. What an event does when it fires
// — which children it posts, by which call, and which earlier closure event
// it cancels — is a pure function of (seed, id), so both runs execute the
// same program and only the engine under test decides the order.
type program struct {
	seed  int64
	limit int // events created in total
}

type child struct {
	delay Time
	typed bool // After rather than Schedule/At
	abs   bool // At rather than Schedule
}

// step returns what event id does when it fires: the children it posts and
// how far back (in creation order) the closure event it cancels lies; 0 means
// it cancels nothing.
func (p program) step(id int) (kids []child, cancelBack int) {
	rng := rand.New(rand.NewSource(p.seed*1_000_003 + int64(id)))
	for n := rng.Intn(4); n > 0; n-- {
		// Few distinct delays, zero among them, so ties on time are common
		// and the sequence number does the ordering.
		kids = append(kids, child{delay: Time(rng.Intn(4)) / 2, typed: rng.Intn(2) == 0, abs: rng.Intn(2) == 0})
	}
	if rng.Intn(3) == 0 {
		cancelBack = 1 + rng.Intn(8)
	}
	return kids, cancelBack
}

// onEngine runs the program on a real Engine and returns the ids in firing
// order.
type onEngine struct {
	p       program
	eng     *Engine
	created int
	handles map[int]*Event // closure events only: typed ones have no handle
	fired   []int
	times   map[int]int
}

// Fire implements Handler: typed events carry their id as arg.
func (r *onEngine) Fire(id int) { r.fire(id) }

func (r *onEngine) post(c child) {
	if r.created == r.p.limit {
		return
	}
	id := r.created
	r.created++
	switch {
	case c.typed:
		r.eng.After(c.delay, r, id)
	case c.abs:
		r.handles[id] = r.eng.At(r.eng.Now()+c.delay, func() { r.fire(id) })
	default:
		r.handles[id] = r.eng.Schedule(c.delay, func() { r.fire(id) })
	}
}

func (r *onEngine) fire(id int) {
	r.fired = append(r.fired, id)
	r.times[id]++
	kids, cancelBack := r.p.step(id)
	for _, c := range kids {
		r.post(c)
	}
	if ev := r.handles[r.created-cancelBack]; cancelBack > 0 && ev != nil {
		ev.Cancel() // often already fired: must then be a no-op
	}
}

// reference runs the same program with no heap and no reuse: a slice sorted
// by (when, seq) before every pop.
func (p program) reference() []int {
	type ev struct {
		when             Time
		id               int // creation order, hence also the sequence number
		closure, removed bool
	}
	var pending []*ev
	byID := map[int]*ev{}
	var now Time
	created := 0
	post := func(c child) {
		if created == p.limit {
			return
		}
		e := &ev{when: now + c.delay, id: created, closure: !c.typed}
		created++
		pending = append(pending, e)
		byID[e.id] = e
	}
	post(child{})
	var fired []int
	for len(pending) > 0 {
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].when != pending[j].when {
				return pending[i].when < pending[j].when
			}
			return pending[i].id < pending[j].id
		})
		e := pending[0]
		pending = pending[1:]
		if e.removed {
			continue
		}
		e.removed = true // fired: a later cancel finds nothing to do
		now = e.when
		fired = append(fired, e.id)
		kids, cancelBack := p.step(e.id)
		for _, c := range kids {
			post(c)
		}
		if target := byID[created-cancelBack]; cancelBack > 0 && target != nil && target.closure {
			target.removed = true
		}
	}
	return fired
}

// TestFreeListSafetyProperty: over random nested Schedule/At/After/Cancel
// programs the engine fires exactly what a sort-based reference fires, in
// the same (when, seq) order; no event — recycled or not — fires twice; and
// Cancel on a handle whose event has fired cancels nothing, even though
// fired typed events are being reused all around it.
func TestFreeListSafetyProperty(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		p := program{seed: seed, limit: 300}
		r := &onEngine{p: p, eng: New(), handles: map[int]*Event{}, times: map[int]int{}}
		r.post(child{})
		r.eng.Run()
		want := p.reference()
		if fmt.Sprint(r.fired) != fmt.Sprint(want) {
			t.Fatalf("seed %d: engine fired\n%v\nreference fired\n%v", seed, r.fired, want)
		}
		for id, n := range r.times {
			if n != 1 {
				t.Fatalf("seed %d: event %d fired %d times", seed, id, n)
			}
		}
		if r.eng.Fired() != uint64(len(want)) || r.eng.Pending() != 0 {
			t.Fatalf("seed %d: Fired=%d Pending=%d, want %d and 0", seed, r.eng.Fired(), r.eng.Pending(), len(want))
		}
	}
}

// TestTypedEventsAreReused pins the point of After: a steady stream of typed
// events runs on a handful of Event records.
func TestTypedEventsAreReused(t *testing.T) {
	e := New()
	chain := &countdown{eng: e, left: 1000}
	e.After(1, chain, 0)
	allocs := testing.AllocsPerRun(1, e.Run)
	if chain.left != 0 || e.Fired() != 1000 {
		t.Fatalf("chain stopped with %d left after %d events", chain.left, e.Fired())
	}
	if allocs > 2 {
		t.Fatalf("1000 chained typed events allocated %v times, want the first few only", allocs)
	}
}

type countdown struct {
	eng  *Engine
	left int
}

func (c *countdown) Fire(int) {
	if c.left--; c.left > 0 {
		c.eng.After(1, c, 0)
	}
}
