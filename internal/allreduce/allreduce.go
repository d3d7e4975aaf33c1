// Package allreduce implements the ring all-reduce gradient synchronization
// substrate (the paper's "NCCL" setups).
//
// Collective operations execute one at a time in submission order: the
// paper's master Core "determines the order of sending tensors and
// broadcasts to other workers, so that all workers can perform the same
// all-reduce operation simultaneously" — deadlock freedom requires a single
// global order, which also means the collective pipeline is a serial FIFO
// resource exactly like a NIC queue.
//
// The cost model for one operation over M machines and s bytes is
//
//	T = 2*(M-1)/M * s / B  +  launch + 2*(M-1)*hopLatency
//
// (bandwidth-optimal segmented ring plus per-operation synchronization).
// The synchronization term is the paper's reason all-reduce wants much
// larger partitions than PS (Table 1): it is paid per operation, so many
// small partitions are expensive. Back-to-back operations (submitted while
// the ring is busy) amortize most of it, which is what larger credit buys.
package allreduce

import (
	"fmt"
	"math"

	"bytescheduler/internal/network"
	"bytescheduler/internal/sim"
	"bytescheduler/internal/trace"
)

// pipelineFactor is the fraction of the synchronization cost still paid by
// an operation that starts back-to-back behind the previous one.
const pipelineFactor = 0.25

// Op is one collective all-reduce operation on a tensor partition.
type Op struct {
	// Bytes is the per-worker payload size being reduced.
	Bytes int64
	// Prio is recorded for diagnostics; ordering is strictly FIFO.
	Prio int
	// OnDone fires when the reduced result is available on all workers.
	OnDone func()
	// OnAcked fires when the scheduler may return credit (completion
	// propagated back to the master Core).
	OnAcked func()
}

// Ring is a serial all-reduce executor over M machines, each holding G
// GPUs. A collective pays an intra-node stage (reduce/broadcast across the
// G GPUs over PCIe) plus the inter-machine ring stage over the NIC; with a
// single machine only the intra-node stage remains, which is why the paper
// still sees all-reduce scheduling gains at 8 GPUs.
type Ring struct {
	eng       *sim.Engine
	prof      network.Profile
	machines  int
	bytesPerS float64

	intraGPUs      int
	intraBytesPerS float64
	algo           Algorithm

	busy     bool
	lastEnd  float64
	queue    []*Op
	served   uint64
	busyTime float64
	redBytes int64
	rec      *trace.Recorder
}

// SetTrace records every collective as a span on the "ring" lane (nil
// disables).
func (r *Ring) SetTrace(rec *trace.Recorder) { r.rec = rec }

// SetIntraNode configures the intra-machine stage: gpus ring members per
// machine reducing at the given effective bus bandwidth. Zero gpus (or <2)
// disables the stage.
func (r *Ring) SetIntraNode(gpus int, bytesPerSec float64) {
	if gpus > 1 && bytesPerSec <= 0 {
		panic("allreduce: intra-node stage needs positive bandwidth")
	}
	r.intraGPUs = gpus
	r.intraBytesPerS = bytesPerSec
}

// New creates a ring over the given number of machines with per-direction
// NIC speed gbps and transport profile prof.
func New(eng *sim.Engine, machines int, gbps float64, prof network.Profile) (*Ring, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("allreduce: need at least one machine, got %d", machines)
	}
	r := &Ring{eng: eng, machines: machines}
	return r, r.Reset(gbps, prof)
}

// Reset returns the ring to the state New leaves it in, at a new link speed
// and profile: idle, nothing queued, counters at zero, no intra-node stage,
// the ring algorithm and no trace. The queue keeps its capacity; a
// collective in flight is dropped, so the engine must have been reset too.
func (r *Ring) Reset(gbps float64, prof network.Profile) error {
	if gbps <= 0 {
		return fmt.Errorf("allreduce: non-positive bandwidth")
	}
	bps := network.GbpsToBytes(gbps) * prof.Efficiency
	if cap := network.GbpsToBytes(prof.CollectiveMaxGbps); prof.CollectiveMaxGbps > 0 && bps > cap {
		bps = cap
	}
	clear(r.queue)
	*r = Ring{eng: r.eng, prof: prof, machines: r.machines, bytesPerS: bps, queue: r.queue[:0]}
	return nil
}

// Machines returns the ring size.
func (r *Ring) Machines() int { return r.machines }

// Served returns the number of completed collectives.
func (r *Ring) Served() uint64 { return r.served }

// ReducedBytes returns the total payload bytes reduced so far.
func (r *Ring) ReducedBytes() int64 { return r.redBytes }

// Utilization returns the fraction of simulated time the ring was busy.
func (r *Ring) Utilization() float64 {
	now := r.eng.Now()
	if now <= 0 {
		return 0
	}
	return r.busyTime / now
}

// QueueLen returns the number of queued (not yet started) operations.
func (r *Ring) QueueLen() int { return len(r.queue) }

// Busy reports whether a collective is in flight.
func (r *Ring) Busy() bool { return r.busy }

// OpTime returns the service time of one collective of the given size; if
// pipelined, the synchronization term is discounted.
func (r *Ring) OpTime(bytes int64, pipelined bool) float64 {
	transfer, hops := 0.0, 0.0
	if r.machines > 1 {
		transfer, hops = r.interTime(bytes)
	}
	sync := r.prof.CollectiveLaunch + hops
	if pipelined {
		sync *= pipelineFactor
	}
	var intra float64
	if r.intraGPUs > 1 {
		g := float64(r.intraGPUs)
		intra = 2 * (g - 1) / g * float64(bytes) / r.intraBytesPerS
	}
	return intra + transfer + sync
}

// Submit enqueues an all-reduce. Operations run serially in submission
// order (the master-decided global order).
func (r *Ring) Submit(op *Op) {
	if op.Bytes < 0 {
		panic("allreduce: negative op size")
	}
	r.queue = append(r.queue, op)
	r.dispatch()
}

func (r *Ring) dispatch() {
	if r.busy || len(r.queue) == 0 {
		return
	}
	op := r.queue[0]
	copy(r.queue, r.queue[1:])
	r.queue[len(r.queue)-1] = nil
	r.queue = r.queue[:len(r.queue)-1]

	now := r.eng.Now()
	pipelined := r.served > 0 && math.Abs(now-r.lastEnd) <= 1e-12*(1+now)
	dur := r.OpTime(op.Bytes, pipelined)
	r.busy = true
	r.busyTime += dur
	r.eng.Schedule(dur, func() {
		if r.rec != nil {
			r.rec.Add("ring", fmt.Sprintf("ar L%d", op.Prio), now, r.eng.Now())
		}
		r.busy = false
		r.lastEnd = r.eng.Now()
		r.served++
		r.redBytes += op.Bytes
		if op.OnDone != nil {
			op.OnDone()
		}
		if op.OnAcked != nil {
			r.eng.Schedule(r.prof.AckDelay, op.OnAcked)
		}
		r.dispatch()
	})
}
