package network

import (
	"math"
	"testing"
	"testing/quick"

	"bytescheduler/internal/sim"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// sinkFuncs is the closure form of a Sink; onDelivered the common case.
type sinkFuncs struct{ delivered, acked func() }

func (s sinkFuncs) Delivered(*Transfer) { s.delivered() }
func (s sinkFuncs) Acked(*Transfer) {
	if s.acked != nil {
		s.acked()
	}
}

func onDelivered(fn func()) Sink { return sinkFuncs{delivered: fn} }

// countSink tallies the messages and bytes it is told were delivered.
type countSink struct {
	msgs  int
	bytes int64
}

func (c *countSink) Delivered(t *Transfer) { c.msgs, c.bytes = c.msgs+1, c.bytes+t.Bytes }
func (c *countSink) Acked(*Transfer)       {}

func TestProfiles(t *testing.T) {
	tcp, rdma := TCP(), RDMA()
	if tcp.MsgOverhead <= rdma.MsgOverhead {
		t.Fatal("TCP per-message overhead must exceed RDMA's")
	}
	if tcp.AckDelay <= rdma.AckDelay {
		t.Fatal("TCP ack delay must exceed RDMA's")
	}
	if tcp.Efficiency >= rdma.Efficiency {
		t.Fatal("RDMA must achieve higher efficiency")
	}
	for _, prof := range []Profile{tcp, rdma} {
		if prof.PipelinedOverhead >= prof.MsgOverhead {
			t.Fatalf("%s: pipelined overhead must be lower", prof.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"tcp", "TCP", "Tcp"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != "TCP" {
			t.Fatalf("ProfileByName(%q) = %v, %v", name, p.Name, err)
		}
	}
	p, err := ProfileByName("rdma")
	if err != nil || p.Name != "RDMA" {
		t.Fatalf("ProfileByName(rdma) = %v, %v", p.Name, err)
	}
	if _, err := ProfileByName("infiniband-verbs"); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

func TestGbpsToBytes(t *testing.T) {
	if got := GbpsToBytes(8); got != 1e9 {
		t.Fatalf("GbpsToBytes(8) = %v, want 1e9", got)
	}
}

func TestSingleTransferTiming(t *testing.T) {
	eng := sim.New()
	prof := TCP()
	f := NewFabric(eng, 2, 10, prof) // 10 Gbps
	var delivered, acked float64 = -1, -1
	f.Send(&Transfer{
		Src: 0, Dst: 1, Bytes: 1 << 20,
		Sink: sinkFuncs{
			delivered: func() { delivered = eng.Now() },
			acked:     func() { acked = eng.Now() },
		},
	})
	eng.Run()
	wantDur := prof.MsgOverhead + float64(1<<20)/(GbpsToBytes(10)*prof.Efficiency)
	if !almost(delivered, wantDur) {
		t.Fatalf("delivered at %v, want %v", delivered, wantDur)
	}
	if !almost(acked, wantDur+prof.AckDelay) {
		t.Fatalf("acked at %v, want %v", acked, wantDur+prof.AckDelay)
	}
}

func TestDuplexIndependence(t *testing.T) {
	// A 0->1 transfer and a 1->0 transfer must proceed concurrently.
	eng := sim.New()
	f := NewFabric(eng, 2, 10, RDMA())
	var d1, d2 float64
	f.Send(&Transfer{Src: 0, Dst: 1, Bytes: 10 << 20, Sink: onDelivered(func() { d1 = eng.Now() })})
	f.Send(&Transfer{Src: 1, Dst: 0, Bytes: 10 << 20, Sink: onDelivered(func() { d2 = eng.Now() })})
	eng.Run()
	if !almost(d1, d2) {
		t.Fatalf("duplex transfers not concurrent: %v vs %v", d1, d2)
	}
	one := f.transferTime(10 << 20)
	if !almost(d1, one) {
		t.Fatalf("duplex transfer took %v, want %v", d1, one)
	}
}

func TestUplinkFIFOHeadOfLine(t *testing.T) {
	// Three messages from node 0: they serialize on the uplink in FIFO
	// order, even though they go to different receivers.
	eng := sim.New()
	f := NewFabric(eng, 3, 10, TCP())
	var order []int
	f.Send(&Transfer{Src: 0, Dst: 1, Bytes: 1 << 20, Sink: onDelivered(func() { order = append(order, 1) })})
	f.Send(&Transfer{Src: 0, Dst: 2, Bytes: 1 << 20, Sink: onDelivered(func() { order = append(order, 2) })})
	f.Send(&Transfer{Src: 0, Dst: 1, Bytes: 1 << 20, Sink: onDelivered(func() { order = append(order, 3) })})
	if w := f.waiting[0]; len(w.q)-w.head != 2 {
		t.Fatalf("queue depth = %d, want 2", len(w.q)-w.head)
	}
	eng.Run()
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("FIFO violated: %v", order)
	}
}

func TestReceiverContention(t *testing.T) {
	// Two senders to one receiver: the receiver downlink serializes them,
	// so total time is ~2 messages.
	eng := sim.New()
	f := NewFabric(eng, 3, 10, RDMA())
	var last float64
	done := func() { last = eng.Now() }
	f.Send(&Transfer{Src: 0, Dst: 2, Bytes: 10 << 20, Sink: onDelivered(done)})
	f.Send(&Transfer{Src: 1, Dst: 2, Bytes: 10 << 20, Sink: onDelivered(done)})
	eng.Run()
	one := f.transferTime(10 << 20)
	// Second message is pipelined on the downlink side but pays full
	// overhead on its (idle) uplink, so expect ~2x the single time.
	if last < 2*one-1e-3 || last > 2*one+1e-3 {
		t.Fatalf("receiver contention: last delivery %v, want ~%v", last, 2*one)
	}
}

func TestNoCrossSourceHeadOfLine(t *testing.T) {
	// Node 1's transfer to a busy receiver must not block node 2's
	// transfer to a free receiver.
	eng := sim.New()
	f := NewFabric(eng, 4, 10, RDMA())
	var d2 float64
	f.Send(&Transfer{Src: 0, Dst: 3, Bytes: 100 << 20}) // occupies downlink 3 for a while
	f.Send(&Transfer{Src: 1, Dst: 3, Bytes: 1 << 20})   // waits on downlink 3
	f.Send(&Transfer{Src: 2, Dst: 0, Bytes: 1 << 20, Sink: onDelivered(func() { d2 = eng.Now() })})
	eng.Run()
	if !almost(d2, f.transferTime(1<<20)) {
		t.Fatalf("independent transfer delayed: %v want %v", d2, f.transferTime(1<<20))
	}
}

func TestPipelinedOverhead(t *testing.T) {
	// Two back-to-back messages on one uplink: the second pays the
	// pipelined overhead, not the full one.
	eng := sim.New()
	prof := TCP()
	f := NewFabric(eng, 2, 10, prof)
	var last float64
	f.Send(&Transfer{Src: 0, Dst: 1, Bytes: 1 << 20})
	f.Send(&Transfer{Src: 0, Dst: 1, Bytes: 1 << 20, Sink: onDelivered(func() { last = eng.Now() })})
	eng.Run()
	bw := GbpsToBytes(10) * prof.Efficiency
	want := prof.MsgOverhead + prof.PipelinedOverhead + 2*float64(1<<20)/bw
	if !almost(last, want) {
		t.Fatalf("back-to-back pair took %v, want %v", last, want)
	}
}

func TestIdleGapPaysFullOverhead(t *testing.T) {
	eng := sim.New()
	prof := TCP()
	f := NewFabric(eng, 2, 10, prof)
	var last float64
	f.Send(&Transfer{Src: 0, Dst: 1, Bytes: 1 << 20})
	// Second message submitted long after the first drains.
	eng.Schedule(1.0, func() {
		f.Send(&Transfer{Src: 0, Dst: 1, Bytes: 1 << 20, Sink: onDelivered(func() { last = eng.Now() })})
	})
	eng.Run()
	want := 1.0 + f.transferTime(1<<20)
	if !almost(last, want) {
		t.Fatalf("post-idle message took %v, want %v", last, want)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng := sim.New()
	f := NewFabric(eng, 2, 10, RDMA())
	f.Send(&Transfer{Src: 0, Dst: 1, Bytes: 50 << 20})
	eng.Run()
	// The transfer holds node 0's uplink and node 1's downlink for the
	// whole run, and neither of the other two links.
	if !almost(eng.Now(), f.transferTime(50<<20)) {
		t.Fatalf("run ended at %v, want one transfer time %v", eng.Now(), f.transferTime(50<<20))
	}
	if f.up[0].served != 1 || f.down[1].served != 1 {
		t.Fatalf("active links served %d, %d messages, want 1", f.up[0].served, f.down[1].served)
	}
	if f.down[0].served != 0 || f.up[1].served != 0 {
		t.Fatalf("idle links served %d, %d messages, want 0", f.down[0].served, f.up[1].served)
	}
}

func TestSendValidation(t *testing.T) {
	eng := sim.New()
	f := NewFabric(eng, 2, 10, TCP())
	for name, tr := range map[string]*Transfer{
		"src range": {Src: -1, Dst: 1, Bytes: 1},
		"dst range": {Src: 0, Dst: 5, Bytes: 1},
		"loopback":  {Src: 1, Dst: 1, Bytes: 1},
		"negative":  {Src: 0, Dst: 1, Bytes: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Send accepted invalid transfer", name)
				}
			}()
			f.Send(tr)
		}()
	}
}

func TestNewFabricValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero nodes": func() { NewFabric(sim.New(), 0, 10, TCP()) },
		"zero bw":    func() { NewFabric(sim.New(), 2, 0, TCP()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			fn()
		}()
	}
}

// Property: all submitted messages are delivered exactly once and total
// delivered bytes match, for random traffic patterns.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		eng := sim.New()
		fab := NewFabric(eng, 4, 25, RDMA())
		var wantBytes int64
		want := 0
		var got countSink
		for i, r := range raw {
			src := i % 4
			dst := (i + 1 + int(r)%3) % 4
			if dst == src {
				dst = (dst + 1) % 4
			}
			bytes := int64(r)*100 + 1
			wantBytes += bytes
			want++
			fab.Send(&Transfer{Src: src, Dst: dst, Bytes: bytes, Sink: &got})
		}
		eng.Run()
		return got.msgs == want && got.bytes == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a single uplink's messages are delivered in submission order.
func TestFIFOProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		eng := sim.New()
		fab := NewFabric(eng, 3, 25, TCP())
		var order []int
		for i, r := range raw {
			i := i
			fab.Send(&Transfer{
				Src: 0, Dst: 1 + i%2, Bytes: int64(r) + 1,
				Sink: onDelivered(func() { order = append(order, i) }),
			})
		}
		eng.Run()
		for i := range order {
			if order[i] != i {
				return false
			}
		}
		return len(order) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A pooled transfer goes back to the fabric after its ack and comes out of
// NewTransfer again, zeroed; one the caller allocated is never handed out.
func TestPooledTransferReuse(t *testing.T) {
	eng := sim.New()
	f := NewFabric(eng, 2, 10, RDMA())
	acks := 0
	sink := sinkFuncs{delivered: func() {}, acked: func() { acks++ }}

	own := &Transfer{Src: 0, Dst: 1, Bytes: 1 << 10, Sink: sink}
	f.Send(own)
	eng.Run()
	if got := f.NewTransfer(); got == own {
		t.Fatal("a caller-allocated transfer was recycled")
	}

	first := f.NewTransfer()
	first.Src, first.Dst, first.Bytes, first.Sink, first.Tag = 0, 1, 1<<10, sink, 7
	f.Send(first)
	if f.NewTransfer() == first {
		t.Fatal("a transfer in flight was handed out again")
	}
	eng.Run()
	again := f.NewTransfer()
	if again != first {
		t.Fatal("an acked pooled transfer was not reused")
	}
	if again.Sink != nil || again.Tag != 0 || again.Bytes != 0 {
		t.Fatalf("recycled transfer not zeroed: %+v", again)
	}
	if acks != 2 {
		t.Fatalf("acks=%d, want 2", acks)
	}
}
