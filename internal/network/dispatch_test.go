package network

import (
	"fmt"
	"math/rand"
	"testing"

	"bytescheduler/internal/sim"
	"bytescheduler/internal/stats"
)

// hop is one delivered message as a fabric saw it.
type hop struct {
	src, dst, tag int
	start, end    float64
}

// refFabric is the reference dispatch: one pending list in send order,
// rescanned in full on every send and every delivery, with a source blocked
// for the rest of a scan once one of its transfers could not start. It
// shares only link, Profile and the fault model with Fabric.
type refFabric struct {
	eng        *sim.Engine
	prof       Profile
	bytesPerS  float64
	up, down   []link
	pending    []*refTransfer
	blockedSrc []bool
	faults     *faultState
	hops       []hop
	onDeliver  func(src, dst, tag int)
}

type refTransfer struct {
	f             *refFabric
	src, dst, tag int
	bytes         int64
	start         float64
}

func (f *refFabric) send(src, dst, tag int, bytes int64) {
	f.pending = append(f.pending, &refTransfer{f: f, src: src, dst: dst, tag: tag, bytes: bytes})
	f.dispatch()
}

func (f *refFabric) dispatch() {
	kept := 0
	for _, t := range f.pending {
		if !f.blockedSrc[t.src] && !f.up[t.src].busy && !f.down[t.dst].busy && !f.outageBlocked(t) {
			f.begin(t)
			continue
		}
		f.blockedSrc[t.src] = true
		f.pending[kept] = t
		kept++
	}
	clear(f.blockedSrc)
	f.pending = f.pending[:kept]
}

func (f *refFabric) outageBlocked(t *refTransfer) bool {
	if f.faults == nil {
		return false
	}
	now := f.eng.Now()
	for _, o := range f.faults.cfg.Outages {
		if (o.Node == t.src || o.Node == t.dst) && now >= o.Start && now < o.Start+o.Duration {
			f.faults.stats.OutageDeferred++
			return true
		}
	}
	return false
}

func (f *refFabric) begin(t *refTransfer) {
	now := f.eng.Now()
	src, dst := &f.up[t.src], &f.down[t.dst]
	overhead := f.prof.MsgOverhead
	if src.served > 0 && nearlyEqual(now, src.lastEnd) {
		overhead = f.prof.PipelinedOverhead
	}
	dur := overhead + float64(t.bytes)/f.bytesPerS
	if fs := f.faults; fs != nil {
		sec, retransmits, spikes := fs.cfg.Penalty(fs.rng)
		dur += sec
		fs.stats.Retransmits += retransmits
		fs.stats.Spikes += spikes
	}
	t.start = now
	src.busy, dst.busy = true, true
	f.eng.After(dur, t, stepDelivered)
}

func (t *refTransfer) Fire(step int) {
	f := t.f
	if step == stepAcked {
		return
	}
	end := f.eng.Now()
	src, dst := &f.up[t.src], &f.down[t.dst]
	src.busy, dst.busy = false, false
	src.lastEnd, dst.lastEnd = end, end
	src.served++
	dst.served++
	f.hops = append(f.hops, hop{t.src, t.dst, t.tag, t.start, end})
	f.onDeliver(t.src, t.dst, t.tag)
	f.eng.After(f.prof.AckDelay, t, stepAcked)
	f.dispatch()
}

// fabricProgram is a seeded random traffic program: bursts from one source
// to many destinations, from many sources to one, and between random pairs,
// separated by gaps long enough for links to drain or short enough to keep
// them pipelined, with optional outages, drops and spikes. A delivery may
// send a reply, as a pure function of the delivered message's tag, so both
// fabrics run the same program however they order it.
type fabricProgram struct {
	seed   int64
	nodes  int
	faults *FaultConfig
	sends  []progSend
}

type progSend struct {
	at            float64
	src, dst, tag int
	bytes         int64
}

func newFabricProgram(seed int64) fabricProgram {
	rng := rand.New(rand.NewSource(seed))
	p := fabricProgram{seed: seed, nodes: 2 + rng.Intn(16)}
	other := func(n int) int { // a node other than n
		return (n + 1 + rng.Intn(p.nodes-1)) % p.nodes
	}
	size := func() int64 {
		return []int64{0, 1 + rng.Int63n(4<<10), 1 + rng.Int63n(256<<10), 1 + rng.Int63n(4<<20)}[rng.Intn(4)]
	}
	at := 0.0
	for b := 3 + rng.Intn(12); b > 0; b-- {
		// A gap of nothing, of less than one message, or of many.
		at += []float64{0, 20e-6, 500e-6, 5e-3, 50e-3}[rng.Intn(5)]
		hub := rng.Intn(p.nodes)
		kind := rng.Intn(3)
		for k := 1 + rng.Intn(2*p.nodes); k > 0; k-- {
			s := progSend{at: at, tag: len(p.sends), bytes: size()}
			switch kind {
			case 0: // one to many
				s.src, s.dst = hub, other(hub)
			case 1: // many to one
				s.src, s.dst = other(hub), hub
			default:
				s.src = rng.Intn(p.nodes)
				s.dst = other(s.src)
			}
			p.sends = append(p.sends, s)
		}
	}
	if rng.Intn(2) == 0 {
		fc := &FaultConfig{Seed: seed}
		for o := rng.Intn(4); o > 0; o-- {
			fc.Outages = append(fc.Outages, Outage{Node: rng.Intn(p.nodes), Start: rng.Float64() * at, Duration: 1e-4 + rng.Float64()*20e-3})
		}
		if rng.Intn(2) == 0 {
			fc.DropProb, fc.RetransmitDelay = 0.05, 1e-3
			fc.SpikeProb, fc.SpikeSec = 0.05, 2e-3
		}
		p.faults = fc
	}
	return p
}

// reply is what the delivery of message tag sends back, if anything.
func (p fabricProgram) reply(src, dst, tag int) (progSend, bool) {
	rng := rand.New(rand.NewSource(p.seed*1_000_003 + int64(tag)))
	if tag >= 4*len(p.sends) || rng.Intn(3) > 0 {
		return progSend{}, false
	}
	return progSend{src: dst, dst: src, tag: tag + len(p.sends), bytes: rng.Int63n(64 << 10)}, true
}

// recordSink logs deliveries on the fabric under test.
type recordSink struct {
	p    fabricProgram
	fab  *Fabric
	hops []hop
}

func (r *recordSink) Delivered(t *Transfer) {
	r.hops = append(r.hops, hop{t.Src, t.Dst, t.Tag, t.start, r.fab.eng.Now()})
	if s, ok := r.p.reply(t.Src, t.Dst, t.Tag); ok {
		r.send(s)
	}
}

func (r *recordSink) Acked(*Transfer) {}

func (r *recordSink) send(s progSend) {
	t := r.fab.NewTransfer()
	t.Src, t.Dst, t.Tag, t.Bytes, t.Sink = s.src, s.dst, s.tag, s.bytes, r
	r.fab.Send(t)
}

func (p fabricProgram) run() ([]hop, FaultStats) {
	eng := sim.New()
	fab := NewFabric(eng, p.nodes, 10, TCP())
	if p.faults != nil {
		if err := fab.InjectFaults(*p.faults); err != nil {
			panic(err)
		}
	}
	r := &recordSink{p: p, fab: fab}
	for _, s := range p.sends {
		eng.At(s.at, func() { r.send(s) })
	}
	eng.Run()
	return r.hops, fab.FaultStats()
}

func (p fabricProgram) reference() ([]hop, FaultStats) {
	eng := sim.New()
	like := NewFabric(eng, p.nodes, 10, TCP())
	f := &refFabric{
		eng: eng, prof: like.prof, bytesPerS: like.bytesPerS,
		up: make([]link, p.nodes), down: make([]link, p.nodes), blockedSrc: make([]bool, p.nodes),
	}
	f.onDeliver = func(src, dst, tag int) {
		if s, ok := p.reply(src, dst, tag); ok {
			f.send(s.src, s.dst, s.tag, s.bytes)
		}
	}
	if fc := p.faults; fc != nil {
		f.faults = &faultState{cfg: *fc, rng: stats.NewRNG(fc.Seed)}
		for _, o := range fc.Outages {
			eng.At(o.Start+o.Duration, f.dispatch)
		}
	}
	for _, s := range p.sends {
		eng.At(s.at, func() { f.send(s.src, s.dst, s.tag, s.bytes) })
	}
	eng.Run()
	var st FaultStats
	if f.faults != nil {
		st = f.faults.stats
	}
	return f.hops, st
}

// TestDispatchMatchesFullScan: over seeded random programs — 2 to 17 nodes,
// mixed sizes, one-to-many and many-to-one bursts, idle gaps and pipelined
// runs, outages, drops and spikes — the per-source queues start and deliver
// every message exactly when a full rescan of every pending transfer does,
// and defer exactly as many dispatch attempts to outages.
func TestDispatchMatchesFullScan(t *testing.T) {
	outages := 0
	for seed := int64(1); seed <= 300; seed++ {
		p := newFabricProgram(seed)
		got, gotStats := p.run()
		want, wantStats := p.reference()
		if len(got) < len(p.sends) {
			t.Fatalf("seed %d: %d of %d messages delivered", seed, len(got), len(p.sends))
		}
		if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w || gotStats != wantStats {
			t.Fatalf("seed %d (%d nodes):\n got %v %+v\nwant %v %+v", seed, p.nodes, g, gotStats, w, wantStats)
		}
		if gotStats.OutageDeferred > 0 {
			outages++
		}
	}
	if outages < 20 {
		t.Fatalf("only %d programs deferred a dispatch to an outage", outages)
	}
}
