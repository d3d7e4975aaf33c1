package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSoak256JobChurn churns the control plane through 256 jobs in a seeded
// random order: each step submits the next job or finishes a random running
// one. The pinned invariant: job teardown never leaks credit — the ledger
// never exceeds the pool while jobs churn — and slots, credit and placed
// load all return to zero when the last job leaves.
func TestSoak256JobChurn(t *testing.T) {
	const jobsN = 256
	for _, fair := range []bool{true, false} {
		s := Scenario{Nodes: 8, SlotsPerNode: 4, LinkGbps: 8, MaxDelayMs: 4,
			CreditPool: 256, Fair: fair}.withDefaults()
		c := newPlane(s)
		rng := rand.New(rand.NewSource(1))
		next, finished := 0, 0
		for finished < jobsN {
			if next < jobsN && (len(c.order) == 0 || rng.Intn(2) == 0) {
				i := next
				next++
				if err := c.submit(Job{
					ID: i, Model: fmt.Sprintf("soak%d", i),
					Weight:         float64(1 + i%4),
					Workers:        1 + i%3,
					TensorsPerIter: int64(8 + i%64),
					BytesPerIter:   1 << 20,
					FloorSec:       0.001,
					Iterations:     4,
				}); err != nil {
					t.Fatalf("fair=%v: submit %d: %v", fair, i, err)
				}
			} else {
				if len(c.order) == 0 {
					t.Fatalf("fair=%v: %d jobs queued and none running", fair, len(c.queue))
				}
				if err := c.finish(c.order[rng.Intn(len(c.order))]); err != nil {
					t.Fatalf("fair=%v: %v", fair, err)
				}
				finished++
			}
			if g := granted(c); g > s.CreditPool {
				t.Fatalf("fair=%v: credit ledger %d over pool %d", fair, g, s.CreditPool)
			}
		}

		// Fully drained: every resource the churn borrowed is back.
		if len(c.order) != 0 || len(c.running) != 0 || len(c.queue) != 0 {
			t.Fatalf("fair=%v: %v running, %d queued after churn", fair, c.order, len(c.queue))
		}
		if c.freeSlots != s.Nodes*s.SlotsPerNode {
			t.Fatalf("fair=%v: slots leaked: %d free, want %d", fair, c.freeSlots, s.Nodes*s.SlotsPerNode)
		}
		for n, free := range c.slotsFree {
			if free != s.SlotsPerNode {
				t.Fatalf("fair=%v: node %d has %d free slots, want %d", fair, n, free, s.SlotsPerNode)
			}
		}
		if g := granted(c); g != 0 {
			t.Fatalf("fair=%v: credit leaked: ledger %d after full drain", fair, g)
		}
		for n, b := range c.load {
			if b != 0 {
				t.Fatalf("fair=%v: placement load leaked: node %d holds %d bytes", fair, n, b)
			}
		}
	}
}
