package recycle

import (
	"math"
	"testing"
)

// TestListReusesAndPoisons: values come back last in, first out; records
// are allocated only when the list is empty; a released buffer is poisoned
// to its capacity under test; and a steady Get/Put cycle allocates nothing,
// poisoning included.
func TestListReusesAndPoisons(t *testing.T) {
	var recs List[*int]
	a := Take(&recs)
	recs.Put(a)
	if b := Take(&recs); b != a {
		t.Fatal("Take allocated though a record was recycled")
	}
	if c := Take(&recs); c == nil || c == a {
		t.Fatal("Take on an empty list must allocate a fresh record")
	}

	var floats List[[]float32]
	f := make([]float32, 2, 4)
	floats.Put(f)
	for i, v := range f[:cap(f)] {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("released []float32 [%d] = %v, want NaN", i, v)
		}
	}
	if g := floats.Get(); &g[:1][0] != &f[0] || floats.Get() != nil {
		t.Fatal("Get did not return the one recycled buffer, then nil")
	}

	var bytes List[[]byte]
	b := make([]byte, 0, 3)
	bytes.Put(b)
	for i, v := range b[:cap(b)] {
		if v != 0xFF {
			t.Fatalf("released []byte [%d] = %#x, want 0xff", i, v)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { bytes.Put(bytes.Get()); floats.Put(floats.Get()) }); allocs != 0 {
		t.Fatalf("a Get/Put cycle allocates %v times, want 0", allocs)
	}
}
