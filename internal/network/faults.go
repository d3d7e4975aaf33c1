package network

import (
	"fmt"

	"bytescheduler/internal/stats"
)

// FaultConfig is the fabric's deterministic fault-injection knob: the
// simulated mirror of the failures the live stack (internal/netps +
// core.AsyncScheduler) hardens against. The fabric keeps its reliable
// in-order delivery contract — faults surface as time, exactly as a
// retransmitting transport presents them to the application: a dropped
// frame costs a retransmission timeout, a link outage stalls the NIC
// queue, a latency spike stretches one message. This keeps the simulator
// deterministic (seeded RNG, event-ordered draws) while reproducing the
// degradation shapes the robustness scenarios measure.
type FaultConfig struct {
	// Seed drives all fault draws; the same seed and workload reproduce
	// the same fault sequence exactly.
	Seed int64
	// DropProb is the per-transmission probability that a message's frame
	// is lost and must be retransmitted. Each loss adds RetransmitDelay to
	// the message's service time; losses compound geometrically, like
	// consecutive RTO doublings.
	DropProb float64
	// RetransmitDelay is the seconds added per lost frame (a transport
	// RTO). Defaults to DefaultRetransmitDelay when zero.
	RetransmitDelay float64
	// SpikeProb is the per-transmission probability of a latency spike
	// (incast, GC pause on a PS, PFC storm).
	SpikeProb float64
	// SpikeSec is the extra service time of a spiked message.
	SpikeSec float64
	// Outages are transient windows during which a node's links carry no
	// new messages (a crashed-and-restarting shard, a flapping port).
	// In-flight messages complete; queued ones wait the outage out.
	Outages []Outage
}

// Outage is one transient link failure at a node.
type Outage struct {
	// Node is the fabric node whose uplink and downlink go dark.
	Node int
	// Start is the outage onset in simulated seconds.
	Start float64
	// Duration is the outage length in seconds.
	Duration float64
}

// DefaultRetransmitDelay approximates a kernel TCP minimum RTO.
const DefaultRetransmitDelay = 200e-3

// Validate reports configuration errors.
func (fc FaultConfig) Validate(nodes int) error {
	if fc.DropProb < 0 || fc.DropProb >= 1 {
		return fmt.Errorf("network: drop probability %v out of [0,1)", fc.DropProb)
	}
	if fc.SpikeProb < 0 || fc.SpikeProb >= 1 {
		return fmt.Errorf("network: spike probability %v out of [0,1)", fc.SpikeProb)
	}
	if fc.SpikeProb > 0 && fc.SpikeSec <= 0 {
		return fmt.Errorf("network: spike probability without positive SpikeSec")
	}
	if fc.RetransmitDelay < 0 {
		return fmt.Errorf("network: negative retransmit delay %v", fc.RetransmitDelay)
	}
	for _, o := range fc.Outages {
		if o.Node < 0 || o.Node >= nodes {
			return fmt.Errorf("network: outage node %d out of range [0,%d)", o.Node, nodes)
		}
		if o.Start < 0 || o.Duration <= 0 {
			return fmt.Errorf("network: outage window [%v,+%v) invalid", o.Start, o.Duration)
		}
	}
	return nil
}

// FaultStats counts injected faults.
type FaultStats struct {
	// Retransmits is the number of lost frames paid for with
	// RetransmitDelay.
	Retransmits uint64
	// Spikes is the number of latency spikes injected.
	Spikes uint64
	// OutageDeferred is the number of dispatch attempts deferred because
	// an endpoint was inside an outage window.
	OutageDeferred uint64
}

// faultState is the fabric's installed fault injector.
type faultState struct {
	cfg   FaultConfig
	rng   *stats.RNG
	stats FaultStats
}

// InjectFaults installs deterministic fault injection on the fabric. Call
// before the simulation starts; calling again replaces the plan.
func (f *Fabric) InjectFaults(fc FaultConfig) error {
	if err := fc.Validate(f.Nodes()); err != nil {
		return err
	}
	if f.faultRNG == nil {
		f.faultRNG = stats.NewRNG(fc.Seed)
	} else {
		f.faultRNG.Seed(fc.Seed)
	}
	f.faults = &faultState{cfg: fc, rng: f.faultRNG}
	// Re-arm dispatch at every outage end: transfers deferred by the
	// outage have no other wake-up edge.
	for _, o := range fc.Outages {
		end := o.Start + o.Duration
		if end > f.eng.Now() {
			f.eng.At(end, f.dispatch)
		}
	}
	return nil
}

// FaultStats returns the injected-fault counters (zero value when fault
// injection is not installed).
func (f *Fabric) FaultStats() FaultStats {
	if f.faults == nil {
		return FaultStats{}
	}
	return f.faults.stats
}

// outageBlocked reports whether the transfer's endpoints are dark right
// now.
func (f *Fabric) outageBlocked(t *Transfer) bool {
	if f.faults == nil || len(f.faults.cfg.Outages) == 0 {
		return false
	}
	now := f.eng.Now()
	for _, o := range f.faults.cfg.Outages {
		if (o.Node == t.Src || o.Node == t.Dst) && now >= o.Start && now < o.Start+o.Duration {
			f.faults.stats.OutageDeferred++
			return true
		}
	}
	return false
}

// Penalty draws the extra service time, in seconds, that the fault model
// injects into one message: a geometric number of retransmit timeouts plus
// an optional latency spike, with the count of each. Both the simulated
// fabric and the live runner's link shaper draw from it; draws happen in
// the caller's deterministic order, so a seeded run replays identically.
func (fc FaultConfig) Penalty(rng *stats.RNG) (sec float64, retransmits, spikes uint64) {
	if fc.DropProb > 0 {
		rto := fc.RetransmitDelay
		if rto == 0 {
			rto = DefaultRetransmitDelay
		}
		for rng.Float64() < fc.DropProb {
			sec += rto
			retransmits++
		}
	}
	if fc.SpikeProb > 0 && rng.Float64() < fc.SpikeProb {
		sec += fc.SpikeSec
		spikes++
	}
	return sec, retransmits, spikes
}
