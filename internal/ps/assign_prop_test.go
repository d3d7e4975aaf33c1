// Property-based tests for the placement assigners. Two claims are load-
// bearing for the §6.2 balance analysis and the hash ring's placement, so
// they are checked over randomized inputs instead of a handful of examples:
//
//   - SizeBalanced (online greedy LPT): the hottest server carries at most
//     mean-load + max-unit-size — the classic list-scheduling bound, which
//     also caps it at 2x the optimal makespan.
//   - HashRing: a ring over one more server places every key where the
//     smaller ring does except the keys the new server takes, so the
//     moved bytes are exactly the new server's share.
//
// All generators are seeded: any failure reproduces bit-for-bit.
package ps

import (
	"fmt"
	"math/rand"
	"testing"
)

// randUnits draws n assignment units with a skewed (power-law-ish) size
// distribution — the tensor-size shape that makes round-robin hot-spot.
func randUnits(rng *rand.Rand, n int) []sizedUnit {
	units := make([]sizedUnit, n)
	for i := range units {
		// Mix of small (KB) and huge (up to 64MB) units.
		size := int64(1<<10) + rng.Int63n(1<<14)
		if rng.Intn(4) == 0 {
			size = rng.Int63n(1<<26) + 1
		}
		name := fmt.Sprintf("w%d", rng.Intn(8))
		units[i] = sizedUnit{Unit{Layer: rng.Intn(40), Name: name, Part: i}, size}
	}
	return units
}

// sizedUnit is one assignment unit and its byte size.
type sizedUnit struct {
	u     Unit
	bytes int64
}

// TestSizeBalancedLPTBound checks the list-scheduling guarantee over
// randomized workloads: max server load <= mean load + largest unit. Since
// the optimum is at least the mean and at least the largest unit, this
// also bounds the greedy makespan at 2x optimal.
func TestSizeBalancedLPTBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		servers := 2 + rng.Intn(14)
		units := randUnits(rng, 1+rng.Intn(300))
		a := newSizeBalanced(servers)
		var sum, maxUnit int64
		for _, u := range units {
			if s := a.Assign(u.u, u.bytes); s < 0 || s >= servers {
				t.Fatalf("trial %d: server %d out of range [0,%d)", trial, s, servers)
			}
			sum += u.bytes
			if u.bytes > maxUnit {
				maxUnit = u.bytes
			}
		}
		var maxLoad, total int64
		for _, l := range a.Load() {
			total += l
			if l > maxLoad {
				maxLoad = l
			}
		}
		if total != sum {
			t.Fatalf("trial %d: load accounting lost bytes: %d != %d", trial, total, sum)
		}
		mean := float64(sum) / float64(servers)
		if float64(maxLoad) > mean+float64(maxUnit) {
			t.Fatalf("trial %d: LPT bound violated: max load %d > mean %.0f + max unit %d (%d servers, %d units)",
				trial, maxLoad, mean, maxUnit, servers, len(units))
		}
		// Equivalent 2x-optimal statement, phrased against the lower bound.
		opt := mean
		if float64(maxUnit) > opt {
			opt = float64(maxUnit)
		}
		if float64(maxLoad) > 2*opt {
			t.Fatalf("trial %d: greedy exceeded 2x the optimal lower bound: %d > 2*%.0f", trial, maxLoad, opt)
		}
	}
}

// TestHashRingChurnBound checks the consistent-hashing contract over
// randomized key sets: (a) placement is a pure function of the key and the
// server count — independently built rings agree; (b) a ring over n+1
// servers moves a unit only onto the new server n, so the churn (moved
// bytes) is exactly the bytes the new server takes.
func TestHashRingChurnBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		servers := 3 + rng.Intn(10)
		vnodes := []int{16, 64, 128}[rng.Intn(3)]
		units := randUnits(rng, 50+rng.Intn(400))

		r1, r2, grown := newHashRing(servers, vnodes), newHashRing(servers, vnodes), newHashRing(servers+1, vnodes)
		var movedBytes, totalBytes int64
		for _, u := range units {
			totalBytes += u.bytes
			base := r1.Assign(u.u, u.bytes)
			if s := r2.Assign(u.u, u.bytes); s != base {
				t.Fatalf("trial %d: ring not deterministic: unit %v -> %d vs %d", trial, u.u, base, s)
			}
			if now := grown.Assign(u.u, u.bytes); now != base {
				if now != servers {
					t.Fatalf("trial %d: unit %v moved %d -> %d though only server %d was added",
						trial, u.u, base, now, servers)
				}
				movedBytes += u.bytes
			}
		}
		if got := grown.Load()[servers]; movedBytes != got {
			t.Fatalf("trial %d: churn %d bytes != added server's %d bytes", trial, movedBytes, got)
		}
		if movedBytes > totalBytes {
			t.Fatalf("trial %d: moved more than exists: %d > %d", trial, movedBytes, totalBytes)
		}
	}
}

// TestAssignerDeterminism pins that every strategy is a deterministic
// function of its input sequence: two independently built assigners fed
// the same units agree on every placement and on the final load vector.
func TestAssignerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	units := randUnits(rng, 300)
	for _, strat := range []Strategy{StrategyRoundRobin, StrategySizeBalanced, StrategyHashRing} {
		a, b := NewAssigner(strat, 7), NewAssigner(strat, 7)
		for _, u := range units {
			sa, sb := a.Assign(u.u, u.bytes), b.Assign(u.u, u.bytes)
			if sa != sb {
				t.Fatalf("%s: divergent placement for %v: %d vs %d", strat, u.u, sa, sb)
			}
		}
		la, lb := a.Load(), b.Load()
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("%s: divergent load on server %d: %d vs %d", strat, i, la[i], lb[i])
			}
		}
	}
}
