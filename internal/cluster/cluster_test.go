package cluster

import (
	"testing"
)

// testPlane is the control plane of a 4-node, 8-slot scenario: 1 GB/s
// links, delays 0, 1, 2 and 3 ms, a 64-credit pool, and the given arm.
func testPlane(fair bool) *plane {
	return newPlane(Scenario{Nodes: 4, SlotsPerNode: 2, LinkGbps: 8, MaxDelayMs: 3,
		CreditPool: 64, Fair: fair}.withDefaults())
}

// credit returns the running job's grant.
func credit(t *testing.T, p *plane, id int) int64 {
	t.Helper()
	m, ok := p.running[id]
	if !ok {
		t.Fatalf("job %d is not running", id)
	}
	return m.credit
}

// granted is the credit ledger: the sum of the running jobs' grants.
func granted(p *plane) int64 {
	var g int64
	for _, m := range p.running {
		g += m.credit
	}
	return g
}

func job(id, workers int, weight float64, tensors, bytes int64) Job {
	return Job{
		ID: id, Model: "m", Weight: weight, Workers: workers,
		TensorsPerIter: tensors, BytesPerIter: bytes,
		FloorSec: 0.01, Iterations: 10,
	}
}

// mustSubmit submits j and reports whether it was admitted at once.
func mustSubmit(t *testing.T, p *plane, j Job) bool {
	t.Helper()
	if err := p.submit(j); err != nil {
		t.Fatalf("submit(%d): %v", j.ID, err)
	}
	_, admitted := p.running[j.ID]
	return admitted
}

// TestConfigValidate pins what the plane takes from its scenario — every
// slot free, the delay ramp from the near to the far rack — and that a
// scenario Validate refuses fails Run before any plane is built.
func TestConfigValidate(t *testing.T) {
	p := testPlane(true)
	if p.freeSlots != 8 || !equalInts(p.slotsFree, []int{2, 2, 2, 2}) {
		t.Fatalf("free slots %d %v, want 8 as 2 per node", p.freeSlots, p.slotsFree)
	}
	for n, want := range []float64{0, 0.001, 0.002, 0.003} {
		if d := p.delays[n]; d < want-1e-12 || d > want+1e-12 {
			t.Fatalf("delays %v, want the 0..3 ms ramp", p.delays)
		}
	}
	for i, s := range []Scenario{
		{Jobs: 1, Nodes: -1},
		{Jobs: 1, SlotsPerNode: -1},
		{Jobs: 1, LinkGbps: -1},
		{Jobs: 1, MaxDelayMs: -1},
		{Jobs: 1, CreditPool: -1},
	} {
		if _, err := s.Run(); err == nil {
			t.Errorf("case %d: invalid scenario ran: %+v", i, s)
		}
	}
}

func TestJobValidate(t *testing.T) {
	bad := []func(*Job){
		func(j *Job) { j.ID = -1 },
		func(j *Job) { j.Weight = 0 },
		func(j *Job) { j.Workers = 0 },
		func(j *Job) { j.TensorsPerIter = 0 },
		func(j *Job) { j.BytesPerIter = 0 },
		func(j *Job) { j.Iterations = 0 },
		func(j *Job) { j.FloorSec = -1 },
	}
	for i, mutate := range bad {
		j := job(1, 1, 1, 4, 1<<20)
		mutate(&j)
		if err := j.validate(); err == nil {
			t.Errorf("case %d: invalid job accepted: %+v", i, j)
		}
	}
}

// TestAdmissionBackfillVsFIFO pins the head-of-line difference: with 8
// slots taken down to 1 free, a 4-worker head blocks a 1-worker follower
// under FIFO but not under backfill.
func TestAdmissionBackfillVsFIFO(t *testing.T) {
	for _, fifo := range []bool{true, false} {
		c := testPlane(!fifo)
		if !mustSubmit(t, c, job(1, 7, 1, 4, 1<<20)) {
			t.Fatal("7-worker job not admitted into empty 8-slot cluster")
		}
		if mustSubmit(t, c, job(2, 4, 1, 4, 1<<20)) {
			t.Fatal("4-worker job admitted with 1 free slot")
		}
		gotSmall := mustSubmit(t, c, job(3, 1, 1, 4, 1<<20))
		if fifo && gotSmall {
			t.Fatal("FIFO admitted past a blocked head")
		}
		if !fifo && !gotSmall {
			t.Fatal("backfill did not admit around the blocked head")
		}
		// Retiring the big job unblocks the queue in arrival order.
		if err := c.finish(1); err != nil {
			t.Fatal(err)
		}
		if !equalInts(c.order, []int{2, 3}) {
			t.Fatalf("running after finish = %v, want [2 3]", c.order)
		}
		if len(c.queue) != 0 {
			t.Fatalf("queue not drained: %d", len(c.queue))
		}
	}
}

// TestPlacementDelayAware pins job→node generalization of the delay-aware
// score: an empty cluster's first worker lands on the zero-delay node, and
// subsequent equal-size workers spread toward higher-delay nodes only as
// load accumulates.
func TestPlacementDelayAware(t *testing.T) {
	// 1 GB/s link, 10 MB per worker => 10 ms queueing per placed worker;
	// delays 0,1,2,3 ms. Workers should fill near nodes first.
	c := testPlane(true)
	mustSubmit(t, c, job(1, 4, 1, 4, 10<<20))
	nodes := c.running[1].nodes
	// Scores walk: n0 (10ms), n1 (10+1 beats 20+0? 11 vs 20 -> n1), then
	// n2 (12), then n3 (13).
	want := []int{0, 1, 2, 3}
	for i, n := range nodes {
		if n != want[i] {
			t.Fatalf("delay-aware placement = %v, want %v", nodes, want)
		}
	}
	// Teardown releases live load: a new identical job repeats the walk.
	if err := c.finish(1); err != nil {
		t.Fatal(err)
	}
	for n, b := range c.load {
		if b != 0 {
			t.Fatalf("node %d still loaded with %d bytes after teardown", n, b)
		}
	}
	mustSubmit(t, c, job(2, 4, 1, 4, 10<<20))
	nodes = c.running[2].nodes
	for i, n := range nodes {
		if n != want[i] {
			t.Fatalf("placement after teardown = %v, want %v", nodes, want)
		}
	}
}

// TestPlacementRoundRobinSkipsFullNodes pins the baseline placer: the
// cursor rotates in node order but never lands on a node without free
// slots.
func TestPlacementRoundRobinSkipsFullNodes(t *testing.T) {
	c := testPlane(false)
	mustSubmit(t, c, job(1, 2, 1, 4, 1<<20))
	if nodes := c.running[1].nodes; nodes[0] != 0 || nodes[1] != 1 {
		t.Fatalf("first job placed on %v, want [0 1]", nodes)
	}
	// 6 workers over free slots n0:1 n1:1 n2:2 n3:2, cursor at 2: the
	// second rotation must skip the now-full nodes 0 and 1.
	mustSubmit(t, c, job(2, 6, 1, 4, 1<<20))
	if nodes := c.running[2].nodes; !equalInts(nodes, []int{2, 3, 0, 1, 2, 3}) {
		t.Fatalf("second job placed on %v, want [2 3 0 1 2 3]", nodes)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCreditRebalance pins contention-aware credit allocation: grants
// follow weights, are capped by a job's tensor appetite with the excess
// flowing to jobs that can use it, and the ledger tracks membership.
func TestCreditRebalance(t *testing.T) {
	c := testPlane(true) // pool 64, fair credits
	// Job 1: weight 1 but only 4 tensors x 1 worker -> cap 4.
	// Job 2: weight 1, 1000 tensors -> absorbs the freed credit.
	mustSubmit(t, c, job(1, 1, 1, 4, 1<<20))
	mustSubmit(t, c, job(2, 1, 1, 1000, 1<<20))
	c1, c2 := credit(t, c, 1), credit(t, c, 2)
	if c1 != 4 {
		t.Fatalf("capped job granted %d credits, want its tensor cap 4", c1)
	}
	if c2 != 60 {
		t.Fatalf("unsaturated job granted %d credits, want the remaining 60", c2)
	}
	if g := granted(c); g != 64 {
		t.Fatalf("ledger %d, want the full pool 64", g)
	}
	// Departure returns the grant and rebalances survivors.
	if err := c.finish(2); err != nil {
		t.Fatal(err)
	}
	if c1 = credit(t, c, 1); c1 != 4 {
		t.Fatalf("survivor grant %d after departure, want 4 (cap-bound)", c1)
	}
	if g := granted(c); g != 4 {
		t.Fatalf("ledger %d after departure, want 4", g)
	}
	// Uniform baseline: pool/n each, remainder stranded, caps ignored.
	c2u := testPlane(false)
	mustSubmit(t, c2u, job(1, 1, 1, 4, 1<<20))
	mustSubmit(t, c2u, job(2, 1, 1, 1000, 1<<20))
	mustSubmit(t, c2u, job(3, 1, 1, 1000, 1<<20))
	for id := 1; id <= 3; id++ {
		if got := credit(t, c2u, id); got != 64/3 {
			t.Fatalf("uniform grant for job %d = %d, want %d", id, got, int64(64/3))
		}
	}
}

func TestSubmitErrors(t *testing.T) {
	c := testPlane(true)
	if err := c.submit(job(1, 9, 1, 4, 1<<20)); err == nil {
		t.Fatal("job larger than the cluster accepted")
	}
	if err := c.submit(job(1, 1, 0, 4, 1<<20)); err == nil {
		t.Fatal("invalid job accepted")
	}
	mustSubmit(t, c, job(1, 1, 1, 4, 1<<20))
	mustSubmit(t, c, job(2, 8, 1, 4, 1<<20)) // queued (7 free)
	if err := c.finish(99); err == nil {
		t.Fatal("finishing unknown job accepted")
	}
	if err := c.finish(2); err == nil {
		t.Fatal("finishing a queued job accepted")
	}
	if len(c.queue) != 1 || !equalInts(c.order, []int{1}) {
		t.Fatalf("state after refused requests: queue %d running %v", len(c.queue), c.order)
	}
}
