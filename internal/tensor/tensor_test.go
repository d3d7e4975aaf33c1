package tensor

import (
	"testing"
	"testing/quick"
)

func TestPartitionWhole(t *testing.T) {
	tt := Tensor{Layer: 1, Name: "weight", Bytes: 1000}
	for _, unit := range []int64{0, -5, 1000, 2000} {
		subs := Partition(tt, unit)
		if len(subs) != 1 {
			t.Fatalf("unit %d: got %d subs, want 1", unit, len(subs))
		}
		s := subs[0]
		if s.Bytes != 1000 || s.Offset != 0 || s.Count != 1 || s.Index != 0 {
			t.Fatalf("unit %d: bad sub %+v", unit, s)
		}
	}
}

func TestPartitionExact(t *testing.T) {
	tt := Tensor{Bytes: 1000}
	subs := Partition(tt, 250)
	if len(subs) != 4 {
		t.Fatalf("got %d subs, want 4", len(subs))
	}
	for i, s := range subs {
		if s.Bytes != 250 {
			t.Fatalf("sub %d size %d, want 250", i, s.Bytes)
		}
		if s.Offset != int64(i)*250 {
			t.Fatalf("sub %d offset %d", i, s.Offset)
		}
		if s.Index != i || s.Count != 4 {
			t.Fatalf("sub %d index/count %d/%d", i, s.Index, s.Count)
		}
	}
}

func TestPartitionRemainder(t *testing.T) {
	tt := Tensor{Bytes: 1001}
	subs := Partition(tt, 250)
	if len(subs) != 5 {
		t.Fatalf("got %d subs, want 5", len(subs))
	}
	if subs[4].Bytes != 1 {
		t.Fatalf("last sub size %d, want 1", subs[4].Bytes)
	}
}

func TestPartitionZeroTensor(t *testing.T) {
	subs := Partition(Tensor{Bytes: 0}, 100)
	if len(subs) != 1 || subs[0].Bytes != 0 {
		t.Fatalf("zero tensor: %+v", subs)
	}
}

func TestStringForms(t *testing.T) {
	tt := Tensor{Layer: 3, Name: "weight", Bytes: 4096}
	if got := tt.String(); got != "L03/weight(4096B)" {
		t.Fatalf("Tensor.String = %q", got)
	}
	s := Partition(tt, 1024)[2]
	if got := s.String(); got != "L03/weight[2/4](1024B)" {
		t.Fatalf("Sub.String = %q", got)
	}
}

func TestTotalBytes(t *testing.T) {
	ts := []Tensor{{Bytes: 1}, {Bytes: 2}, {Bytes: 3}}
	if got := TotalBytes(ts); got != 6 {
		t.Fatalf("TotalBytes = %d, want 6", got)
	}
	if got := TotalBytes(nil); got != 0 {
		t.Fatalf("TotalBytes(nil) = %d, want 0", got)
	}
}

// Properties: partitions are contiguous, non-overlapping, cover the tensor,
// and each is at most unit bytes.
func TestPartitionProperties(t *testing.T) {
	f := func(size uint32, unit uint16) bool {
		tt := Tensor{Bytes: int64(size % (1 << 22))} // bound partition counts
		u := int64(unit)
		subs := Partition(tt, u)
		var off int64
		for i, s := range subs {
			if s.Offset != off || s.Index != i || s.Count != len(subs) {
				return false
			}
			if u > 0 && u < tt.Bytes && s.Bytes > u {
				return false
			}
			if s.Bytes < 0 {
				return false
			}
			if i < len(subs)-1 && s.Bytes == 0 {
				return false // only a zero-size tensor yields a zero-size sub
			}
			off += s.Bytes
		}
		return off == tt.Bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendPartition(t *testing.T) {
	tt := Tensor{Layer: 2, Name: "w", Bytes: 1000}
	for _, unit := range []int64{0, 300, 1000, 5000} {
		want := Partition(tt, unit)
		var one [1]Sub
		got := AppendPartition(one[:0], tt, unit)
		if len(got) != len(want) {
			t.Fatalf("unit %d: %d partitions, want %d", unit, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("unit %d: partition %d = %+v, want %+v", unit, i, got[i], want[i])
			}
		}
		if inPlace := &got[0] == &one[0]; inPlace != (len(want) == 1) {
			t.Fatalf("unit %d: used the caller's storage = %v with %d partitions", unit, inPlace, len(want))
		}
	}
	// The single-partition case is the one a caller provides storage for.
	var one [1]Sub
	if n := testing.AllocsPerRun(100, func() { AppendPartition(one[:0], tt, 0) }); n != 0 {
		t.Fatalf("single partition into the caller's storage allocated %v times", n)
	}
	// A non-empty dst keeps its contents.
	pre := []Sub{{Index: 9}}
	if got := AppendPartition(pre, tt, 300); len(got) != 5 || got[0].Index != 9 || got[1].Index != 0 {
		t.Fatalf("append to a non-empty slice: %+v", got)
	}
}
