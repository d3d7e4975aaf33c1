package ps

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want Strategy
		err  bool
	}{
		{"", StrategyRoundRobin, false},
		{"round-robin", StrategyRoundRobin, false},
		{"RR", StrategyRoundRobin, false},
		{"roundrobin", StrategyRoundRobin, false},
		{"size-balanced", StrategySizeBalanced, false},
		{"LPT", StrategySizeBalanced, false},
		{"balanced", StrategySizeBalanced, false},
		{"hash-ring", StrategyHashRing, false},
		{"Ring", StrategyHashRing, false},
		{"hash", StrategyHashRing, false},
		{"delay-aware", StrategyDelayAware, false},
		{"Delay", StrategyDelayAware, false},
		{"dally", StrategyDelayAware, false},
		{" lpt ", StrategySizeBalanced, false},
		{"bogus", 0, true},
	}
	for _, c := range cases {
		got, err := ParseStrategy(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseStrategy(%q): expected error", c.in)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{StrategyRoundRobin, StrategySizeBalanced, StrategyHashRing, StrategyDelayAware} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%v.String()) = %v, %v", s, got, err)
		}
		if NewAssigner(s, 4).Name() != s.String() {
			t.Errorf("NewAssigner(%v).Name() = %q", s, NewAssigner(s, 4).Name())
		}
	}
	if len(StrategyNames()) != 4 {
		t.Fatalf("StrategyNames() = %v", StrategyNames())
	}
}

// powerLawSizes returns n unit sizes maxBytes/r^alpha, deterministically
// shuffled — the skewed-but-splittable distribution placement strategies are
// judged on.
func powerLawSizes(n int, maxBytes int64, alpha float64, seed int64) []int64 {
	sizes := make([]int64, n)
	for r := range sizes {
		sizes[r] = int64(float64(maxBytes) / math.Pow(float64(r+1), alpha))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

func assignAll(a Assigner, sizes []int64) {
	for i, b := range sizes {
		a.Assign(Unit{Layer: i, Name: "weight", Part: -1}, b)
	}
}

// TestSizeBalancedBeatsRoundRobin pins the tentpole claim: on power-law unit
// sizes the greedy assigner's max server load respects the LPT-style bound
// mean + max-unit, while round-robin (which ignores size) lands materially
// above it.
func TestSizeBalancedBeatsRoundRobin(t *testing.T) {
	const servers = 8
	for seed := int64(1); seed <= 5; seed++ {
		sizes := powerLawSizes(48, 24<<20, 0.7, seed)
		var total, maxUnit int64
		for _, b := range sizes {
			total += b
			if b > maxUnit {
				maxUnit = b
			}
		}
		mean := float64(total) / servers

		lpt := newSizeBalanced(servers)
		assignAll(lpt, sizes)
		rr := newRoundRobin(servers)
		assignAll(rr, sizes)

		lptMax := maxLoad(lpt.Load())
		if bound := mean + float64(maxUnit); float64(lptMax) > bound {
			t.Errorf("seed %d: LPT max load %d exceeds mean+max bound %.0f", seed, lptMax, bound)
		}
		lptImb, rrImb := Imbalance(lpt.Load()), Imbalance(rr.Load())
		if lptImb >= rrImb {
			t.Errorf("seed %d: LPT imbalance %.3f not below round-robin %.3f", seed, lptImb, rrImb)
		}
	}
}

func maxLoad(load []int64) int64 {
	var m int64
	for _, b := range load {
		if b > m {
			m = b
		}
	}
	return m
}

// TestRoundRobinAliasesPeriodicSizes pins the §6.2 failure mode the
// EXT-BALANCE experiment measures end to end: a periodic size sequence
// (every 4th unit heavy, like a transformer block's dominant tensor) aliases
// with the round-robin cycle when the period divides the server count, so
// every heavy unit lands on the same two servers.
func TestRoundRobinAliasesPeriodicSizes(t *testing.T) {
	const servers, units = 8, 48
	sizes := make([]int64, units)
	for i := range sizes {
		if i%4 == 0 {
			sizes[i] = 24 << 20
		} else {
			sizes[i] = 256 << 10
		}
	}
	rr := newRoundRobin(servers)
	heavyServers := map[int]bool{}
	for i, b := range sizes {
		s := rr.Assign(Unit{Layer: i, Name: "u", Part: -1}, b)
		if b == 24<<20 {
			heavyServers[s] = true
		}
	}
	if len(heavyServers) != 2 {
		t.Fatalf("heavy units spread over %d servers, aliasing predicts 2", len(heavyServers))
	}
	if imb := Imbalance(rr.Load()); imb < 3 {
		t.Fatalf("round-robin imbalance %.2f, want the aliased hot-spot (>3)", imb)
	}
	lpt := newSizeBalanced(servers)
	assignAll(lpt, sizes)
	if imb := Imbalance(lpt.Load()); imb > 1.6 {
		t.Fatalf("size-balanced imbalance %.2f on the same sequence, want near-flat", imb)
	}
}

func TestAssignersAreDeterministic(t *testing.T) {
	sizes := powerLawSizes(32, 8<<20, 1.0, 7)
	for _, s := range []Strategy{StrategyRoundRobin, StrategySizeBalanced, StrategyHashRing, StrategyDelayAware} {
		a, b := NewAssigner(s, 5), NewAssigner(s, 5)
		for i, bytes := range sizes {
			u := Unit{Layer: i, Name: "w", Part: -1}
			if got, want := a.Assign(u, bytes), b.Assign(u, bytes); got != want {
				t.Fatalf("%v: divergent assignment for %v: %d vs %d", s, u, got, want)
			}
		}
	}
}

// TestHashRingStability pins consistent hashing's selling point on one
// deployment: a ring over one more server moves only the keys the new
// server claims, about 1/(n+1) of them, and a ring rebuilt over the same
// servers places every key where the first one did.
func TestHashRingStability(t *testing.T) {
	const servers, keys = 8, 512
	ring := newHashRing(servers, DefaultVirtualNodes)
	again := newHashRing(servers, DefaultVirtualNodes)
	grown := newHashRing(servers+1, DefaultVirtualNodes)
	moved := 0
	for i := 0; i < keys; i++ {
		k := Unit{Layer: i / 4, Name: "weight", Part: i % 4}
		s := ring.Assign(k, 1)
		if s2 := again.Assign(k, 1); s2 != s {
			t.Fatalf("key %s on %d and %d in two rings built alike", k, s, s2)
		}
		if now := grown.Assign(k, 1); now != s {
			moved++
			if now != servers {
				t.Fatalf("key %s moved %d -> %d though only server %d was added", k, s, now, servers)
			}
		}
	}
	// The new server claims ~1/9 of the keys; everything else is untouched.
	if lo, hi := keys/(servers+1)/2, keys/(servers+1)*2; moved < lo || moved > hi {
		t.Fatalf("%d of %d keys moved, want about %d", moved, keys, keys/(servers+1))
	}
}

func TestHashRingPanics(t *testing.T) {
	mustPanic(t, "zero servers", func() { NewAssigner(StrategyHashRing, 0) })
	mustPanic(t, "negative servers", func() { NewAssigner(StrategyHashRing, -1) })
	mustPanic(t, "zero servers", func() { NewAssigner(StrategyRoundRobin, 0) })
}

// TestDelayAwareTradesLoadForProximity pins the scoring rule on a
// hand-checkable topology: server 0 is local (no delay), server 1 a
// cross-rack hop 2 seconds away, link rate 1 B/s, unit size 1 byte. Units
// queue locally until local queueing exceeds the remote delay, then
// alternate — scores before each pick: 1v3, 2v3, 3v3 (tie → low index),
// 4v3, 4v4 (tie), 5v4.
func TestDelayAwareTradesLoadForProximity(t *testing.T) {
	a := newDelayAware(2, []float64{0, 2}, 1)
	want := []int{0, 0, 0, 1, 0, 1}
	for i, ws := range want {
		if got := a.Assign(Unit{Layer: i, Name: "u", Part: -1}, 1); got != ws {
			t.Fatalf("unit %d placed on server %d, want %d", i, got, ws)
		}
	}
	if load := a.Load(); load[0] != 4 || load[1] != 2 {
		t.Fatalf("delay-aware load = %v, want [4 2]", load)
	}
}

// TestDelayAwareUniformDelayMatchesSizeBalanced pins the degenerate case:
// with equal delays the delay term cancels and placement must coincide with
// the size-balanced greedy on any sequence.
func TestDelayAwareUniformDelayMatchesSizeBalanced(t *testing.T) {
	const servers = 5
	sizes := powerLawSizes(64, 16<<20, 0.9, 11)
	da := newDelayAware(servers, []float64{3, 3, 3, 3, 3}, 1e9)
	lpt := newSizeBalanced(servers)
	for i, b := range sizes {
		u := Unit{Layer: i, Name: "w", Part: -1}
		if got, want := da.Assign(u, b), lpt.Assign(u, b); got != want {
			t.Fatalf("unit %d (%d bytes): delay-aware → %d, size-balanced → %d", i, b, got, want)
		}
	}
}

func TestDelayAwarePanics(t *testing.T) {
	mustPanic(t, "zero servers", func() { newDelayAware(0, nil, 1) })
	mustPanic(t, "delay count mismatch", func() { newDelayAware(2, []float64{1}, 1) })
	mustPanic(t, "negative delay", func() { newDelayAware(1, []float64{-1}, 1) })
	mustPanic(t, "zero rate", func() { newDelayAware(1, []float64{0}, 0) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		load []int64
		want float64
	}{
		{nil, 0},
		{[]int64{0, 0}, 0},
		{[]int64{4, 4, 4, 4}, 1},
		{[]int64{8, 0, 0, 0}, 4},
		{[]int64{6, 2}, 1.5},
	}
	for _, c := range cases {
		if got := Imbalance(c.load); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Imbalance(%v) = %v, want %v", c.load, got, c.want)
		}
	}
}

// TestHashRingUnitPlacement pins key-free placement to the string keys it
// replaced: each Unit renders to the "L<layer>/<name>" or
// "L<layer>/<name>#<part>" key the cluster used to build, and an 8-server
// ring puts whole tensors and partitions of several layers on exactly the
// servers those keys chose (recorded from the string-keyed ring).
func TestHashRingUnitPlacement(t *testing.T) {
	want := []int{
		0, 2, 2, 2, 1, 7, 7, 7, 3, 0, 0, 0, 2, 1, 1, 1, 6, 0, 0, 0, 2, 0, 0, 0, 5, 7, 7, 7,
		5, 1, 1, 1, 5, 6, 6, 6, 1, 3, 3, 3, 1, 3, 3, 3, 0, 6, 6, 6, 1, 6, 6, 6, 0, 7, 7, 7,
		6, 3, 3, 3, 1, 3, 3, 3, 2, 4, 4, 4, 6, 2, 2, 2, 4, 7, 7, 7, 3, 3, 3, 3, 6, 2, 2, 2,
		6, 4, 4, 4, 4, 7, 7, 7, 4, 0, 0, 0, 2, 4, 4, 4, 5, 2, 2, 2, 2, 3, 3, 3, 3, 7, 7, 7,
	}
	r := newHashRing(8, DefaultVirtualNodes)
	var got []int
	for _, name := range []string{"weight", "bias", "fc6/weight", "embedding"} {
		for l := 0; l < 20; l += 3 {
			for _, part := range []int{-1, 0, 2, 4} {
				u := Unit{Layer: l, Name: name, Part: part}
				key := fmt.Sprintf("L%d/%s#%d", l, name, part)
				if part < 0 {
					key = fmt.Sprintf("L%d/%s", l, name)
				}
				if u.String() != key {
					t.Fatalf("%#v renders %q, want %q", u, u.String(), key)
				}
				got = append(got, r.Assign(u, 1))
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("hash-ring placement moved:\n got %v\nwant %v", got, want)
	}
}
