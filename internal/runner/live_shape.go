// Live link shaping: a deterministic bandwidth/latency model injected in
// front of the real sockets. EXT-AUTOTUNE needs the fabric to *change*
// under a running job; loopback TCP is too fast and too flat to move the
// (partition, credit) optimum, so each worker's transport is wrapped in a
// serial shaped link — per-message overhead plus a byte rate, with the
// PR1 fault fabric's drop/spike model (network.FaultConfig) layered on
// top. The injected service time is serialized per worker (one wire) on
// a link clock (deviceClock): each message books its time from when the
// link is free, so a sleep's overshoot does not delay the next message,
// and the real socket operation runs outside the lock, so transport
// pipelining is preserved.

package runner

import (
	"fmt"
	"sync"
	"time"

	"bytescheduler/internal/metrics"
	"bytescheduler/internal/network"
	"bytescheduler/internal/stats"
)

// LinkShape is one phase of the live link shaper, active from FromIter
// until the next phase's FromIter. A run with an empty Shape list is
// unshaped; a phase list lets an experiment shift the effective bandwidth
// mid-run and watch the auto-tuner re-converge.
type LinkShape struct {
	// FromIter is the first iteration this phase applies to. Phases must
	// be sorted strictly ascending; the first phase usually starts at 0
	// (iterations before the first phase are unshaped).
	FromIter int
	// PerMessage is a fixed injected service time per transport message —
	// the θ of the paper's overhead model (§2.2).
	PerMessage time.Duration
	// Gbps, when > 0, adds bytes*8/(Gbps*1e9) seconds per message — the
	// serialized byte rate of the modeled link.
	Gbps float64
	// Faults layers the PR1 fault fabric's per-message model on the link:
	// geometric retransmit delays with probability DropProb and latency
	// spikes with probability SpikeProb. Outages are not supported on the
	// live path (their windows are in simulated seconds).
	Faults network.FaultConfig
}

// validateShape checks a phase list.
func validateShape(phases []LinkShape) error {
	for i, ph := range phases {
		if ph.FromIter < 0 {
			return fmt.Errorf("runner: shape phase %d starts at negative iteration %d", i, ph.FromIter)
		}
		if i > 0 && ph.FromIter <= phases[i-1].FromIter {
			return fmt.Errorf("runner: shape phases must be sorted strictly ascending (phase %d at iter %d)", i, ph.FromIter)
		}
		if ph.PerMessage < 0 {
			return fmt.Errorf("runner: shape phase %d: negative per-message time %v", i, ph.PerMessage)
		}
		if ph.Gbps < 0 {
			return fmt.Errorf("runner: shape phase %d: negative rate %v Gbps", i, ph.Gbps)
		}
		if len(ph.Faults.Outages) > 0 {
			return fmt.Errorf("runner: shape phase %d: outages are simulator-only (windows are in simulated seconds)", i)
		}
		if err := ph.Faults.Validate(1); err != nil {
			return err
		}
	}
	return nil
}

// linkShaper injects one worker's shaped-link service times.
type linkShaper struct {
	phases []LinkShape
	rng    *stats.RNG
	msgs   *metrics.Counter
	delay  *metrics.Histogram
	mu     sync.Mutex   // guards rng and link's booking
	link   *deviceClock // the serialized wire
}

// newLinkShaper builds a per-worker shaper; reg may be nil.
func newLinkShaper(phases []LinkShape, seed int64, reg *metrics.Registry) *linkShaper {
	return &linkShaper{
		phases: phases,
		rng:    stats.NewRNG(seed),
		msgs:   reg.Counter("live_shaped_msgs_total"),
		delay:  reg.Histogram("live_shape_delay_seconds"),
		link:   &deviceClock{now: time.Now, sleep: time.Sleep},
	}
}

// phase returns the phase active at the iteration, or nil before the
// first phase.
func (s *linkShaper) phase(iter int) *LinkShape {
	var active *LinkShape
	for i := range s.phases {
		if s.phases[i].FromIter <= iter {
			active = &s.phases[i]
		}
	}
	return active
}

// wrap returns comm preceded by the link's injected service time.
func (s *linkShaper) wrap(comm liveComm) liveComm {
	return func(key string, iter uint32, in, out []float32, h sender) error {
		s.hold(int(iter), int64(len(in))*4)
		return comm(key, iter, in, out, h)
	}
}

// hold books the message's injected service time on the serialized link,
// from when the link is free or from now if later, then sleeps to its
// nominal end, before the real socket op.
func (s *linkShaper) hold(iter int, bytes int64) {
	ph := s.phase(iter)
	if ph == nil {
		return
	}
	s.mu.Lock()
	d := ph.PerMessage
	if ph.Gbps > 0 {
		d += time.Duration(float64(bytes) * 8 / ph.Gbps)
	}
	sec, _, _ := ph.Faults.Penalty(s.rng)
	d += time.Duration(sec * float64(time.Second))
	end, _ := s.link.book(s.link.now(), d)
	s.mu.Unlock()
	s.link.sleep(end.Sub(s.link.now())) // returns at once if end has passed
	s.msgs.Inc()
	s.delay.Observe(d.Seconds())
}
