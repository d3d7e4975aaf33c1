package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// program is a random, self-extending event program, run once on the real
// engine and once on a sort-based reference. What an event does when it fires
// — which children it posts, and by which call — is a pure function of
// (seed, id), so both runs execute the same program and only the engine
// under test decides the order.
type program struct {
	seed  int64
	limit int // events created in total
}

type child struct {
	delay Time
	typed bool // After rather than Schedule/At
	abs   bool // At rather than Schedule
}

// step returns the children event id posts when it fires.
func (p program) step(id int) (kids []child) {
	rng := rand.New(rand.NewSource(p.seed*1_000_003 + int64(id)))
	for n := rng.Intn(4); n > 0; n-- {
		// Few distinct delays, zero among them, so ties on time are common
		// and the sequence number does the ordering.
		kids = append(kids, child{delay: Time(rng.Intn(4)) / 2, typed: rng.Intn(2) == 0, abs: rng.Intn(2) == 0})
	}
	return kids
}

// onEngine runs the program on a real Engine and returns the ids in firing
// order.
type onEngine struct {
	p       program
	eng     *Engine
	created int
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
		r.eng.At(r.eng.Now()+c.delay, func() { r.fire(id) })
	default:
		r.eng.Schedule(c.delay, func() { r.fire(id) })
	}
}

func (r *onEngine) fire(id int) {
	r.fired = append(r.fired, id)
	r.times[id]++
	for _, c := range r.p.step(id) {
		r.post(c)
	}
}

// reference runs the same program with no heap: a slice sorted by
// (when, seq) before every pop.
func (p program) reference() []int {
	type ev struct {
		when Time
		id   int // creation order, hence also the sequence number
	}
	var pending []*ev
	var now Time
	created := 0
	post := func(c child) {
		if created == p.limit {
			return
		}
		pending = append(pending, &ev{when: now + c.delay, id: created})
		created++
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
		now = e.when
		fired = append(fired, e.id)
		for _, c := range p.step(e.id) {
			post(c)
		}
	}
	return fired
}

// TestFreeListSafetyProperty: over random nested Schedule/At/After programs
// the engine fires exactly what a sort-based reference fires, in the same
// (when, seq) order, and no event fires twice.
func TestFreeListSafetyProperty(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		p := program{seed: seed, limit: 300}
		r := &onEngine{p: p, eng: New(), times: map[int]int{}}
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
// events allocates nothing once the queue has its capacity.
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
