package cluster

import (
	"fmt"
	"math"
	"sort"

	"bytescheduler/internal/engine"
	"bytescheduler/internal/model"
)

// Scenario describes a multi-job cluster simulation: hundreds of
// heterogeneous jobs (a model-zoo mix plus power-law synthetics, millions
// of tensor transfers in total) arriving over a window on a cluster of
// nodes, under either the FIFO/uniform baseline or the fair-share +
// delay-aware treatment. It is a pure value type — comparable scalars only
// — so it folds into sweep cache keys, and Run is deterministic in Seed:
// no wall clock, no map iteration, no execution-order dependence.
type Scenario struct {
	// Jobs is the number of jobs submitted.
	Jobs int
	// Nodes and SlotsPerNode size the cluster.
	Nodes, SlotsPerNode int
	// LinkGbps is each node's link rate.
	LinkGbps float64
	// MaxDelayMs spreads per-node network delay linearly from 0 (node 0,
	// the near rack) to MaxDelayMs (the far rack) — the heterogeneity
	// delay-aware placement exploits.
	MaxDelayMs float64
	// CreditPool is the cluster-wide credit budget (in-flight tensors).
	CreditPool int64
	// ArrivalWindowSec spreads job arrivals uniformly over [0, window).
	ArrivalWindowSec float64
	// Fair selects the treatment arm: backfill admission, work-conserving
	// max-min bandwidth shares (water-filled, so capacity a demand-capped
	// worker cannot use flows to its link neighbors), delay-aware
	// placement, and contention-aware credits. False is the baseline:
	// FIFO admission, uniform shares (capacity/n per worker, excess over
	// a worker's demand stranded), round-robin placement, uniform credit
	// split.
	Fair bool
	// Seed drives job generation.
	Seed int64
}

// withDefaults fills unset fields with the standard scenario.
func (s Scenario) withDefaults() Scenario {
	if s.Jobs == 0 {
		s.Jobs = 240
	}
	if s.Nodes == 0 {
		s.Nodes = 16
	}
	if s.SlotsPerNode == 0 {
		s.SlotsPerNode = 4
	}
	if s.LinkGbps == 0 {
		s.LinkGbps = 25
	}
	if s.CreditPool == 0 {
		s.CreditPool = 512
	}
	if s.ArrivalWindowSec == 0 {
		s.ArrivalWindowSec = 60
	}
	return s
}

// Validate reports scenario errors.
func (s Scenario) Validate() error {
	s = s.withDefaults()
	if s.Jobs < 0 || s.Nodes <= 0 || s.SlotsPerNode <= 0 {
		return fmt.Errorf("cluster: invalid scenario size %d jobs on %dx%d slots", s.Jobs, s.Nodes, s.SlotsPerNode)
	}
	if s.LinkGbps <= 0 {
		return fmt.Errorf("cluster: non-positive link rate %v Gbps", s.LinkGbps)
	}
	if s.MaxDelayMs < 0 {
		return fmt.Errorf("cluster: negative max delay %v ms", s.MaxDelayMs)
	}
	if s.CreditPool <= 0 {
		return fmt.Errorf("cluster: non-positive credit pool %d", s.CreditPool)
	}
	if s.ArrivalWindowSec <= 0 {
		return fmt.Errorf("cluster: non-positive arrival window %v", s.ArrivalWindowSec)
	}
	return nil
}

// linkBytesPerSec converts the scenario link rate to bytes/sec.
func (s Scenario) linkBytesPerSec() float64 { return s.LinkGbps * 1e9 / 8 }

// delays materializes the per-node delay ramp.
func (s Scenario) delays() []float64 {
	d := make([]float64, s.Nodes)
	if s.Nodes > 1 {
		for n := range d {
			d[n] = s.MaxDelayMs / 1000 * float64(n) / float64(s.Nodes-1)
		}
	}
	return d
}

// splitmix64 is the per-job deterministic hash: independent draws come from
// distinct counters, never from shared RNG state, so generation is stable
// under any evaluation order.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns job i's k-th independent random 64-bit value.
func (s Scenario) draw(i, k int) uint64 {
	return splitmix64(uint64(s.Seed)<<24 ^ uint64(i)<<8 ^ uint64(k))
}

// arrival is job i's arrival time.
func (s Scenario) arrival(i int) float64 {
	return float64(s.draw(i, 0)%1e9) / 1e9 * s.ArrivalWindowSec
}

// GenerateJobs deterministically materializes the scenario's job mix:
// seven real zoo models plus power-law synthetics, 1-4 workers, weights
// 1/2/4, tens to hundreds of iterations. Each job's FloorSec comes from
// its DAG profile's critical path at the scenario link rate — per-op FP
// and BP timings, not a uniform backward-compute assumption — so placement
// sees real per-layer costs.
func (s Scenario) GenerateJobs() []Job {
	s = s.withDefaults()
	rate := s.linkBytesPerSec()
	maxWorkers := s.Nodes * s.SlotsPerNode
	jobs := make([]Job, s.Jobs)
	for i := range jobs {
		var m *model.Model
		switch s.draw(i, 1) % 10 {
		case 0:
			m = model.VGG16()
		case 1:
			m = model.ResNet50()
		case 2:
			m = model.Transformer()
		case 3:
			m = model.AlexNet()
		case 4:
			m = model.BERTBase()
		case 5:
			m = model.InceptionV3()
		case 6:
			m = model.GNMT()
		default:
			layers := 24 + int(s.draw(i, 2)%97)
			m = model.PowerLaw(fmt.Sprintf("pl%d", i), layers, 8<<20, 0.9,
				int64(s.draw(i, 3)%1e9), 0.015)
		}
		floor, err := engine.Profile(m).DAGTimings(rate).CriticalPathSec()
		if err != nil {
			panic(fmt.Sprintf("cluster: zoo model %s has no DAG profile: %v", m.Name, err))
		}
		var tensors int64
		for _, l := range m.Layers {
			tensors += int64(len(l.Tensors))
		}
		workers := 1 << (s.draw(i, 4) % 3) // 1, 2, 4
		if workers > maxWorkers {
			workers = maxWorkers
		}
		jobs[i] = Job{
			ID:             i,
			Model:          m.Name,
			Weight:         float64(int64(1) << (s.draw(i, 5) % 3)), // 1, 2, 4
			Workers:        workers,
			TensorsPerIter: tensors,
			BytesPerIter:   m.TotalBytes(),
			FloorSec:       floor,
			Iterations:     30 + int(s.draw(i, 6)%120),
		}
	}
	return jobs
}

// JobStat is one job's lifecycle in the report: queued from ArrivalSec to
// AdmitSec, running until DoneSec.
type JobStat struct {
	ID                            int
	Model                         string
	Workers                       int
	Weight                        float64
	ArrivalSec, AdmitSec, DoneSec float64
	Tensors                       int64
}

// Report summarizes one scenario run.
type Report struct {
	// Jobs and Nodes echo the scenario size.
	Jobs, Nodes int
	// TotalTensors counts tensor transfers across all jobs, workers, and
	// iterations.
	TotalTensors int64
	// TotalBytes is the payload moved (bytes, as float to avoid overflow).
	TotalBytes float64
	// MakespanSec is the time from first arrival to last completion.
	MakespanSec float64
	// JCT percentiles/mean over job completion time (completion-arrival).
	JCTMeanSec, JCTP50Sec, JCTP95Sec float64
	// QueueMeanSec is the mean admission wait.
	QueueMeanSec float64
	// UtilizationPct is the consumed fraction of aggregate link capacity
	// over the makespan.
	UtilizationPct float64
	// PerJob lists every job's lifecycle, ID-ordered (trace lanes).
	PerJob []JobStat
}

// claim is one worker's appetite on a link during rate allocation.
type claim struct {
	job int
	cap float64
}

// Run executes the scenario through the control plane under a fluid
// (average-rate) network model: between admission/completion events every
// worker receives a share of its node link (max-min water-filled under
// Fair, a uniform slice in the baseline), capped by the job's attainable
// rate
//
//	cap = BytesPerIter / (FloorSec + TensorsPerIter*delay/credit)
//
// — the iteration's serial floor plus the per-tensor delay its credit
// grant cannot hide (credit in-flight tensors pipeline the delay). A job
// progresses at the minimum of its workers' shares; events are the only
// places rates change, so the loop advances piecewise-linearly from event
// to event. Hundreds of jobs and millions of tensor transfers therefore
// cost thousands of events, not millions of timer steps.
func (s Scenario) Run() (Report, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Report{}, err
	}
	p := newPlane(s)
	jobs := s.GenerateJobs()
	linkRate := s.linkBytesPerSec()

	n := len(jobs)
	arrivals := make([]float64, n)
	order := make([]int, n) // arrival order
	remaining := make([]float64, n)
	admitAt := make([]float64, n)
	doneAt := make([]float64, n)
	for i, j := range jobs {
		arrivals[i] = s.arrival(i)
		order[i] = i
		remaining[i] = float64(j.BytesPerIter) * float64(j.Iterations)
		admitAt[i], doneAt[i] = -1, -1
	}
	sort.SliceStable(order, func(a, b int) bool {
		if arrivals[order[a]] != arrivals[order[b]] {
			return arrivals[order[a]] < arrivals[order[b]]
		}
		return order[a] < order[b]
	})

	t := 0.0
	if n > 0 {
		t = arrivals[order[0]]
	}
	start := t
	next := 0
	done := 0
	busyBytes := 0.0
	rates := make([]float64, n)
	var running []int // the event's running jobs; finishing one edits p.order
	maxEvents := 10*n + 1000
	for events := 0; done < n; events++ {
		if events > maxEvents {
			return Report{}, fmt.Errorf("cluster: simulation stalled after %d events (%d/%d jobs done)", events, done, n)
		}
		for next < len(order) && arrivals[order[next]] <= t+1e-12 {
			if err := p.submit(jobs[order[next]]); err != nil {
				return Report{}, err
			}
			next++
		}
		running = append(running[:0], p.order...)
		for _, id := range running {
			if admitAt[id] < 0 {
				admitAt[id] = t
			}
		}
		p.ratesFor(jobs, running, rates)
		dt := math.Inf(1)
		if next < len(order) {
			dt = arrivals[order[next]] - t
		}
		for _, id := range running {
			if rates[id] > 0 {
				if d := remaining[id] / rates[id]; d < dt {
					dt = d
				}
			}
		}
		if math.IsInf(dt, 1) {
			return Report{}, fmt.Errorf("cluster: no progress at t=%v (%d running, %d queued)", t, len(running), len(p.queue))
		}
		if dt < 0 {
			dt = 0
		}
		for _, id := range running {
			adv := rates[id] * dt
			remaining[id] -= adv
			busyBytes += adv * float64(jobs[id].Workers)
		}
		t += dt
		for _, id := range running {
			// Sub-byte residue is float noise at these magnitudes, not work.
			if remaining[id] <= 1 {
				remaining[id] = 0
				doneAt[id] = t
				if err := p.finish(id); err != nil {
					return Report{}, err
				}
				done++
			}
		}
	}

	rep := Report{Jobs: n, Nodes: s.Nodes, MakespanSec: t - start}
	jcts := make([]float64, 0, n)
	var jctSum, queueSum float64
	for i, j := range jobs {
		rep.TotalTensors += j.TotalTensors()
		rep.TotalBytes += float64(j.BytesPerIter) * float64(j.Iterations) * float64(j.Workers)
		jct := doneAt[i] - arrivals[i]
		jcts = append(jcts, jct)
		jctSum += jct
		queueSum += admitAt[i] - arrivals[i]
		rep.PerJob = append(rep.PerJob, JobStat{
			ID: j.ID, Model: j.Model, Workers: j.Workers, Weight: j.Weight,
			ArrivalSec: arrivals[i], AdmitSec: admitAt[i], DoneSec: doneAt[i],
			Tensors: j.TotalTensors(),
		})
	}
	if n > 0 {
		sort.Float64s(jcts)
		rep.JCTMeanSec = jctSum / float64(n)
		rep.JCTP50Sec = pctile(jcts, 0.50)
		rep.JCTP95Sec = pctile(jcts, 0.95)
		rep.QueueMeanSec = queueSum / float64(n)
	}
	if rep.MakespanSec > 0 {
		rep.UtilizationPct = busyBytes / (linkRate * float64(s.Nodes) * rep.MakespanSec) * 100
	}
	return rep, nil
}

// ratesFor fills rates[id] (bytes/sec, slowest-worker view) for every
// running job, each worker capped by its job's attainable rate given
// compute floor, node delay, and credit grant. Under Fair each node link
// max-min water-fills across the workers placed there, so capacity a
// demand-capped worker cannot absorb flows to its link neighbors; the
// baseline hands every worker a uniform capacity/n slice and strands
// whatever exceeds the worker's demand — the water-filled share therefore
// dominates the uniform one pointwise, and the arms isolate the value of
// work conservation rather than a reweighting of who wins.
func (p *plane) ratesFor(jobs []Job, running []int, rates []float64) {
	linkRate := p.s.linkBytesPerSec()
	perNode := make([][]claim, p.s.Nodes)
	for _, id := range running {
		j := jobs[id]
		m := p.running[id]
		credit := m.credit
		if credit < 1 {
			credit = 1 // a starved grant still pipelines one tensor
		}
		for _, node := range m.nodes {
			stall := float64(j.TensorsPerIter) * p.delays[node] / float64(credit)
			perNode[node] = append(perNode[node], claim{
				job: id,
				cap: float64(j.BytesPerIter) / (j.FloorSec + stall),
			})
		}
		rates[id] = math.Inf(1)
	}
	for node := range perNode {
		claims := perNode[node]
		if len(claims) == 0 {
			continue
		}
		var shares []float64
		if p.s.Fair {
			weights := make([]float64, len(claims))
			caps := make([]float64, len(claims))
			for k, c := range claims {
				weights[k] = 1
				caps[k] = c.cap
			}
			shares = ExactShares(linkRate, weights, caps)
		} else {
			slice := linkRate / float64(len(claims))
			shares = make([]float64, len(claims))
			for k, c := range claims {
				shares[k] = math.Min(slice, c.cap)
			}
		}
		for k, c := range claims {
			if shares[k] < rates[c.job] {
				rates[c.job] = shares[k]
			}
		}
	}
}

// pctile returns the q-th percentile of an ascending-sorted sample
// (nearest-rank, deterministic).
func pctile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
