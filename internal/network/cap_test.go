package network

import (
	"testing"

	"bytescheduler/internal/sim"
)

func TestGoodputCapApplies(t *testing.T) {
	// At 100 Gbps the RDMA point-to-point goodput cap binds; at 10 Gbps
	// the line rate does.
	eng := sim.New()
	prof := RDMA()
	fast := NewFabric(eng, 2, 100, prof)
	slow := NewFabric(eng, 2, 10, prof)
	if got, want := fast.bytesPerS, GbpsToBytes(prof.MaxGoodputGbps); got != want {
		t.Fatalf("capped goodput = %v, want %v", got, want)
	}
	if got, want := slow.bytesPerS, GbpsToBytes(10)*prof.Efficiency; got != want {
		t.Fatalf("line-limited goodput = %v, want %v", got, want)
	}
}

func TestGoodputCapMonotonic(t *testing.T) {
	// More nominal bandwidth never reduces effective goodput, and the
	// curve saturates at the cap.
	eng := sim.New()
	prof := TCP()
	var prev float64
	for _, gbps := range []float64{1, 5, 10, 25, 40, 100, 200} {
		f := NewFabric(eng, 2, gbps, prof)
		got := f.bytesPerS
		if got < prev {
			t.Fatalf("goodput decreased at %vGbps: %v < %v", gbps, got, prev)
		}
		if got > GbpsToBytes(prof.MaxGoodputGbps)+1 {
			t.Fatalf("goodput exceeds cap at %vGbps: %v", gbps, got)
		}
		prev = got
	}
	if prev != GbpsToBytes(prof.MaxGoodputGbps) {
		t.Fatalf("200Gbps TCP goodput %v, want saturated cap", prev)
	}
}

func TestUncappedProfile(t *testing.T) {
	eng := sim.New()
	prof := RDMA()
	prof.MaxGoodputGbps = 0 // disabled
	f := NewFabric(eng, 2, 100, prof)
	if got, want := f.bytesPerS, GbpsToBytes(100)*prof.Efficiency; got != want {
		t.Fatalf("uncapped goodput = %v, want %v", got, want)
	}
}
