// Property-based test for tensor partitioning: for randomized tensor
// sizes and partition units the partitions must tile the parent exactly —
// offsets contiguous from zero, sizes summing to the parent, no partition
// above the unit, stable index ordering — and the whole computation must
// be deterministic. The paper's correctness relies on this silently:
// every worker partitions every tensor independently and the results must
// agree byte-for-byte, or keyed transports (netps, netar) would pair
// partitions of different geometry.
package tensor

import (
	"math/rand"
	"testing"
)

// checkTiling asserts the tiling invariants for one (tensor, unit) pair.
func checkTiling(t *testing.T, tn Tensor, unit int64) {
	t.Helper()
	subs := Partition(tn, unit)
	if len(subs) == 0 {
		t.Fatalf("%v unit=%d: no partitions", tn, unit)
	}
	var off, sum int64
	for i, s := range subs {
		if s.Parent != tn {
			t.Fatalf("%v unit=%d: sub %d has parent %v", tn, unit, i, s.Parent)
		}
		if s.Index != i || s.Count != len(subs) {
			t.Fatalf("%v unit=%d: sub %d has Index=%d Count=%d (want %d/%d)",
				tn, unit, i, s.Index, s.Count, i, len(subs))
		}
		if s.Offset != off {
			t.Fatalf("%v unit=%d: sub %d at offset %d, want contiguous %d", tn, unit, i, s.Offset, off)
		}
		if tn.Bytes > 0 && s.Bytes <= 0 {
			t.Fatalf("%v unit=%d: sub %d has %d bytes", tn, unit, i, s.Bytes)
		}
		if unit > 0 && unit < tn.Bytes && s.Bytes > unit {
			t.Fatalf("%v unit=%d: sub %d has %d bytes > unit", tn, unit, i, s.Bytes)
		}
		if got := s.Index == s.Count-1; got != (i == len(subs)-1) {
			t.Fatalf("%v unit=%d: sub %d last=%v", tn, unit, i, got)
		}
		off += s.Bytes
		sum += s.Bytes
	}
	if sum != tn.Bytes {
		t.Fatalf("%v unit=%d: partitions sum to %d bytes", tn, unit, sum)
	}
	// All partitions except possibly the last are exactly unit-sized.
	for i, s := range subs[:len(subs)-1] {
		if unit > 0 && unit < tn.Bytes && s.Bytes != unit {
			t.Fatalf("%v unit=%d: non-final sub %d has %d bytes, want exactly unit", tn, unit, i, s.Bytes)
		}
	}
}

func TestPartitionTilingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41)) // deterministic: failures reproduce
	for trial := 0; trial < 2000; trial++ {
		tn := Tensor{Layer: rng.Intn(64), Name: "w", Bytes: rng.Int63n(1 << 26)}
		var unit int64
		switch rng.Intn(4) {
		case 0: // boundary units: zero/negative, around the tensor size
			unit = []int64{-1, 0, tn.Bytes - 1, tn.Bytes, tn.Bytes + 1}[rng.Intn(5)]
		case 1: // tiny units on tiny tensors (worst-case partition counts)
			tn.Bytes = rng.Int63n(1 << 12)
			unit = 1 + rng.Int63n(16)
		case 2: // power of two, the common configuration (4KB..32MB)
			unit = 1 << uint(12+rng.Intn(14))
		default: // arbitrary, bounded below so counts stay sane
			unit = 1<<12 + rng.Int63n(1<<26)
		}
		checkTiling(t, tn, unit)
	}
}

// TestPartitionDeterministic pins the cross-worker agreement property:
// repeated partitioning of the same tensor yields identical geometry.
func TestPartitionDeterministic(t *testing.T) {
	tn := Tensor{Layer: 3, Name: "weight", Bytes: 10<<20 + 12345}
	a := Partition(tn, 1<<20)
	b := Partition(tn, 1<<20)
	if len(a) != len(b) {
		t.Fatalf("partition counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sub %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
