package cluster

import (
	"fmt"
	"sort"
)

// Job is one training job submitted to the cluster: its model profile
// reduced to what admission, placement, and credit allocation need.
type Job struct {
	// ID is the caller-chosen unique job identifier.
	ID int
	// Model names the job's model (labels, traces).
	Model string
	// Weight is the job's share weight for weighted max-min division of
	// the scarce credit pool (FairShare). The uniform-credit baseline
	// ignores it.
	Weight float64
	// Workers is the number of worker slots the job occupies.
	Workers int
	// TensorsPerIter is the number of gradient tensors one worker syncs
	// per iteration — the job's appetite for credits: more in-flight
	// tensors hide more per-tensor delay.
	TensorsPerIter int64
	// BytesPerIter is the gradient payload one worker moves per iteration.
	BytesPerIter int64
	// FloorSec is the job's per-iteration serial floor: the DAG's critical
	// path through backward compute, the binding transfer, and forward
	// compute (core.DAGTimings.CriticalPathSec, with per-op profiled BP
	// timings). No scheduler beats it, so placement treats it as the
	// incompressible part of the iteration.
	FloorSec float64
	// Iterations is the job's total training length.
	Iterations int
}

// Validate reports structural errors in the job description.
func (j Job) Validate() error {
	if j.ID < 0 {
		return fmt.Errorf("cluster: negative job id %d", j.ID)
	}
	if j.Weight <= 0 {
		return fmt.Errorf("cluster: job %d has non-positive weight %v", j.ID, j.Weight)
	}
	if j.Workers <= 0 {
		return fmt.Errorf("cluster: job %d has %d workers", j.ID, j.Workers)
	}
	if j.TensorsPerIter <= 0 || j.BytesPerIter <= 0 || j.Iterations <= 0 {
		return fmt.Errorf("cluster: job %d has empty work (%d tensors, %d bytes, %d iterations)",
			j.ID, j.TensorsPerIter, j.BytesPerIter, j.Iterations)
	}
	if j.FloorSec < 0 {
		return fmt.Errorf("cluster: job %d has negative compute floor %v", j.ID, j.FloorSec)
	}
	return nil
}

// TotalTensors is the tensor-transfer count the job generates over its
// lifetime across all workers.
func (j Job) TotalTensors() int64 {
	return j.TensorsPerIter * int64(j.Iterations) * int64(j.Workers)
}

// member is one admitted job with its placement and current credit grant.
type member struct {
	job    Job
	nodes  []int // worker → node
	credit int64
}

// plane is one scenario run's control plane: jobs queue under admission
// control, get their workers placed on nodes, and share the credit pool
// until they finish. Scenario.Run owns it and drives it from one goroutine,
// so it has no lock, and it visits running jobs in ascending ID order, so a
// run is fully deterministic. Scenario.Fair picks the arm: backfill
// admission, delay-aware placement and the weighted max-min credit split,
// against FIFO admission, round-robin placement and a uniform split.
type plane struct {
	s         Scenario // defaults applied
	delays    []float64
	running   map[int]*member
	order     []int // running IDs ascending
	queue     []Job // arrival order
	slotsFree []int // per node
	freeSlots int
	load      []int64 // per node: one BytesPerIter per placed worker
	cursor    int     // round-robin placement's next candidate node
}

// newPlane returns the empty control plane of a validated scenario.
func newPlane(s Scenario) *plane {
	p := &plane{
		s:         s,
		delays:    s.delays(),
		running:   make(map[int]*member),
		slotsFree: make([]int, s.Nodes),
		freeSlots: s.Nodes * s.SlotsPerNode,
		load:      make([]int64, s.Nodes),
	}
	for n := range p.slotsFree {
		p.slotsFree[n] = s.SlotsPerNode
	}
	return p
}

// submit queues the job and runs admission. A job that can never fit the
// cluster is rejected.
func (p *plane) submit(j Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if slots := p.s.Nodes * p.s.SlotsPerNode; j.Workers > slots {
		return fmt.Errorf("cluster: job %d needs %d workers, cluster has %d slots", j.ID, j.Workers, slots)
	}
	p.queue = append(p.queue, j)
	if p.admit() {
		p.splitCredits()
	}
	return nil
}

// finish retires a running job: its slots, placed load and credit grant
// return to the pool, and queued jobs are (re-)considered for admission.
func (p *plane) finish(id int) error {
	m, ok := p.running[id]
	if !ok {
		return fmt.Errorf("cluster: job %d is not running", id)
	}
	for _, n := range m.nodes {
		p.slotsFree[n]++
		p.freeSlots++
		p.load[n] -= m.job.BytesPerIter
	}
	delete(p.running, id)
	i := sort.SearchInts(p.order, id)
	p.order = append(p.order[:i], p.order[i+1:]...)
	p.admit()
	p.splitCredits()
	return nil
}

// admit drains the queue in arrival order and reports whether it admitted
// anyone. The baseline stops at the first job that does not fit — the
// head-of-line blocking that inflates tail job-completion times; under
// Fair, backfill admits any job that fits, letting small jobs flow around a
// blocked large head.
func (p *plane) admit() (changed bool) {
	for i := 0; i < len(p.queue); {
		j := p.queue[i]
		if j.Workers <= p.freeSlots {
			p.place(j)
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			changed = true
			continue
		}
		if !p.s.Fair {
			break
		}
		i++
	}
	return changed
}

// place admits one job: every worker lands on a node with a free slot.
func (p *plane) place(j Job) {
	m := &member{job: j, nodes: make([]int, j.Workers)}
	for w := range m.nodes {
		n := p.pick(j.BytesPerIter)
		p.slotsFree[n]--
		p.freeSlots--
		p.load[n] += j.BytesPerIter
		m.nodes[w] = n
	}
	p.running[j.ID] = m
	at := sort.SearchInts(p.order, j.ID)
	p.order = append(p.order, 0)
	copy(p.order[at+1:], p.order[at:])
	p.order[at] = j.ID
}

// pick chooses a worker's node among those with a free slot, by the ps
// placement strategies generalized from tensor→server to worker→node. Under
// Fair it is ps.DelayAware's earliest-finish score: queued bytes over the
// link rate, plus the node's delay. The baseline is round-robin from a
// cursor. Admission guarantees a free slot exists.
func (p *plane) pick(bytes int64) int {
	if p.s.Fair {
		rate := p.s.linkBytesPerSec()
		best := -1
		var bestScore float64
		for n := range p.load {
			if p.slotsFree[n] == 0 {
				continue
			}
			s := (float64(p.load[n])+float64(bytes))/rate + p.delays[n]
			if best < 0 || s < bestScore {
				best, bestScore = n, s
			}
		}
		return best
	}
	for i := range p.load {
		n := (p.cursor + i) % len(p.load)
		if p.slotsFree[n] > 0 {
			p.cursor = (n + 1) % len(p.load)
			return n
		}
	}
	panic("cluster: no free node (admission control must prevent this)")
}

// splitCredits re-divides the credit pool across the admitted jobs. Under
// Fair it runs the weighted max-min allocator with each job's tensor count
// as its cap, so credit a small job cannot use flows to tensor-heavy jobs
// instead of being stranded; the baseline splits uniformly and strands both
// the remainder and any excess over a job's appetite. The ledger invariant
// — the grants never exceed the pool, and teardown returns exactly what was
// granted — is what the churn soak test pins.
func (p *plane) splitCredits() {
	n := len(p.order)
	if n == 0 {
		return
	}
	if p.s.Fair {
		weights := make([]float64, n)
		caps := make([]int64, n)
		for k, id := range p.order {
			j := p.running[id].job
			weights[k] = j.Weight
			caps[k] = j.TensorsPerIter * int64(j.Workers)
		}
		alloc := FairShare(p.s.CreditPool, weights, caps)
		for k, id := range p.order {
			p.running[id].credit = alloc[k]
		}
		return
	}
	share := p.s.CreditPool / int64(n)
	for _, id := range p.order {
		p.running[id].credit = share
	}
}
