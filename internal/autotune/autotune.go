// Package autotune closes the paper's §4.3 auto-tuning loop on the live
// path: a controller observes per-iteration wall time (and the transport
// latency histograms) from a running job, proposes new (partition, credit)
// configurations through the tune suggesters, and applies them mid-run via
// the scheduler's safe reconfiguration path — no restarts, the AutoByte
// setting.
//
// The control loop is a small state machine driven by completed
// measurement windows (hysteresis: a config is never judged on fewer than
// DwellIters clean iterations):
//
//	Warmup ──► Probing ──► Settled ──► (regression) ──► Probing …
//	              │  ▲
//	   rollback   ▼  │ revalidate
//	           Recovering
//
// Probing spends Trials suggester proposals over tune.ParamBounds(),
// tracking the best config seen. A probe that regresses more than
// rollbackPct (35%) below the incumbent
// triggers a guarded rollback: the controller reverts to the best-known
// config for one window to re-validate it, at most once per search
// episode, then resumes probing (each probe is dwell-bounded, so the harm
// of a further bad probe is already capped). After Trials probes the best
// config is adopted and the controller settles, tracking a slow EWMA
// baseline; two consecutive windows more than retunePct below that
// baseline — a bandwidth change, a new co-tenant, not a single noisy
// window — start a fresh search episode.
//
// Settled regression detection watches two signals. The primary is
// training speed against the EWMA baseline. The secondary is the mean
// transport op latency (the netps_push_seconds / netps_pull_seconds /
// netar_op_seconds histograms, read as per-window deltas): a fabric can
// degrade — longer queues, a slower link — while compute still hides the
// damage from iteration time, and the op latency surfaces it first. A
// settled window whose mean op latency exceeds its own EWMA baseline by
// more than latencyPct (100%: it must double; loopback op latency is far
// noisier than iteration time) counts as regressing under the same
// two-window confirmation rule.
package autotune

import (
	"fmt"
	"sync"
	"time"

	"bytescheduler/internal/metrics"
	"bytescheduler/internal/trace"
	"bytescheduler/internal/tune"
)

// The fixed warmup and regression bars (see the package doc). A test may
// assign the controller's copies of rollbackPct and latencyPct, and
// Config.warmup.
const (
	// warmupIters discards this many leading iterations before any window
	// accumulates (transport connect + socket warmup).
	warmupIters = 2
	// retunePct triggers a new search episode: two consecutive settled
	// windows slower than the EWMA baseline by more than this fraction
	// mean the environment shifted (a single bad window is treated as
	// noise and left out of the baseline).
	retunePct = 0.30
	// rollbackPct triggers the guarded rollback: a probe slower than the
	// incumbent best by more than this fraction reverts to best-known for
	// a re-validation window.
	rollbackPct = 0.35
	// latencyPct is the secondary regression signal: a settled window
	// whose mean transport op latency (netps_*/netar_* histogram delta)
	// exceeds the settled latency EWMA by more than this fraction counts
	// as regressing even while speed holds, under the same two-window
	// confirmation as retunePct.
	latencyPct = 1.0
)

// Setting is one live (partition, credit) configuration in bytes.
type Setting struct {
	// Partition is the partition unit handed to core.SetPartitionUnit;
	// always a positive multiple of 4 (fp32 element alignment).
	Partition int64
	// Credit is the credit window handed to core.SetCredit.
	Credit int64
}

// String renders the setting in MB, matching the CLI flags.
func (s Setting) String() string {
	return fmt.Sprintf("(part=%.2fMB credit=%.2fMB)",
		float64(s.Partition)/(1<<20), float64(s.Credit)/(1<<20))
}

// settingFromVector decodes a search vector, aligning the partition to the
// fp32 element size the live runner requires.
func settingFromVector(x []float64) Setting {
	p, c := tune.ParamsFromVector(x)
	if p%4 != 0 {
		p -= p % 4
	}
	if p < 4 {
		p = 4
	}
	if c < 1 {
		c = 1
	}
	return Setting{Partition: p, Credit: c}
}

// State identifies the controller's position in the control loop.
type State int

// The control loop walks Warmup -> Probing -> Settled, detouring through
// Recovering after a guarded rollback; a sustained regression while
// Settled starts a fresh Probing episode.
const (
	// StateWarmup discards initial iterations and measures the starting
	// config's baseline window.
	StateWarmup State = iota
	// StateProbing evaluates suggester proposals, one dwell window each.
	StateProbing
	// StateRecovering re-validates the best-known config for one window
	// after a guarded rollback.
	StateRecovering
	// StateSettled runs the episode's best config and watches for
	// sustained regression.
	StateSettled
)

// String names the state for logs and traces.
func (s State) String() string {
	switch s {
	case StateWarmup:
		return "warmup"
	case StateProbing:
		return "probing"
	case StateRecovering:
		return "recovering"
	case StateSettled:
		return "settled"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Config parameterizes a Controller.
type Config struct {
	// Suggester selects the search algorithm: "bo" (constant-liar Bayesian
	// optimization, the default), "grid", or "random".
	Suggester string
	// Seed seeds the suggester; retune episodes derive fresh streams.
	Seed int64
	// DwellIters is the hysteresis window: a config is judged only on this
	// many clean iterations (the first iteration after every switch is
	// additionally discarded as transition overlap). Default 3.
	DwellIters int
	// Trials is the number of suggester proposals per search episode.
	// Default 8.
	Trials int
	// Metrics, if non-nil, publishes the autotune_* series and lets the
	// controller read the transport latency histograms (netps_*/netar_*).
	Metrics *metrics.Registry
	// Trace, if non-nil, records one span per decision on the "autotune"
	// lane.
	Trace *trace.Wall

	warmup int // leading iterations discarded; warmupIters unless a test sets it
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Suggester == "" {
		c.Suggester = "bo"
	}
	if c.warmup <= 0 {
		c.warmup = warmupIters
	}
	if c.DwellIters <= 0 {
		c.DwellIters = 3
	}
	if c.Trials <= 0 {
		c.Trials = 8
	}
	return c
}

// Validate reports configuration errors (after defaulting).
func (c Config) Validate() error {
	switch c.Suggester {
	case "bo", "grid", "random":
	default:
		return fmt.Errorf("autotune: unknown suggester %q (want bo, grid, or random)", c.Suggester)
	}
	return nil
}

// BudgetIters is the number of iterations a run must feed the controller
// for one whole search episode — warmup, then the baseline window, Trials
// probes and at most one rollback re-validation — followed by steady
// settled windows. Every window after the baseline is DwellIters clean
// iterations behind one discarded transition iteration, and behind up to
// skew more when other workers pin iterations up to skew ahead of the
// timing worker's observations: an iteration pinned before a switch runs
// the old config and is discarded as residue. The episode's adopt decision
// closes before iteration BudgetIters(0, skew).
func (c Config) BudgetIters(steady, skew int) int {
	c = c.withDefaults()
	return c.warmup + c.DwellIters + 1 + (c.Trials+1+steady)*(c.DwellIters+1+skew)
}

// newSuggester builds the episode's tuner.
func newSuggester(name string, seed int64) tune.Tuner {
	b := tune.ParamBounds()
	switch name {
	case "grid":
		return tune.NewGridSearch(b, 4)
	case "random":
		return tune.NewRandomSearch(b, seed)
	}
	return tune.NewBO(b, seed)
}

// Decision is one judged measurement window.
type Decision struct {
	// Iter is the iteration whose observation closed the window.
	Iter int
	// Setting is the config the window measured.
	Setting Setting
	// Speed is the window's training speed in iterations per second.
	Speed float64
	// OpSeconds is the mean transport op latency over the window, read as
	// a delta of the netps_*/netar_* histograms (0 when unavailable).
	OpSeconds float64
	// State is the controller state that judged the window.
	State State
	// Action is what the controller did: baseline, probe, adopt,
	// rollback, revalidate, retune, or steady.
	Action string
}

// Report summarizes a controller's run for results and assertions.
type Report struct {
	// Best and BestSpeed are the incumbent config and its window speed.
	Best      Setting
	BestSpeed float64
	// Settled reports whether the last episode adopted a config;
	// SettledSpeed is its EWMA baseline speed.
	Settled      bool
	SettledSpeed float64
	// Final is the config workers would pin next.
	Final Setting
	// Probes, Rollbacks, Retunes, and Episodes count control actions.
	Probes, Rollbacks, Retunes, Episodes int
	// Decisions is the full judged-window log, in order.
	Decisions []Decision
}

// Controller is the online tuning loop. Workers pin their per-iteration
// config with ConfigFor; the timing worker feeds measured iteration
// durations to ObserveIteration. All methods are safe for concurrent use.
type Controller struct {
	mu  sync.Mutex
	cfg Config

	rollbackPct, latencyPct float64

	tuner   tune.Tuner
	state   State
	episode int

	target Setting         // what ConfigFor pins for new iterations
	pinned map[int]Setting // iteration -> config actually applied

	cand    Setting   // config under judgment
	candX   []float64 // cand's search vector while probing (nil otherwise)
	skip    int       // transition iterations left to discard
	win     []float64 // accumulated clean iteration durations
	winFrom time.Time // window start, for trace spans
	probes  int       // proposals spent this episode
	rolled  bool      // guarded rollback already fired this episode

	best      Setting
	bestSpeed float64
	baseline  float64 // settled speed EWMA
	opBase    float64 // settled op-latency EWMA, seeded by the first steady window
	slow      int     // consecutive settled windows past a regression bar
	report    Report

	// Transport latency histograms, read as deltas per window.
	ops               []*metrics.Histogram
	opsCount          uint64
	opsSum            float64
	decisions, probeC *metrics.Counter
	rollbackC, retune *metrics.Counter
	gPart, gCredit    *metrics.Gauge
	gState            *metrics.Gauge
	hWindow           *metrics.Histogram
}

// New returns a controller that starts at (and measures first) the given
// setting.
func New(start Setting, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if start.Partition <= 0 || start.Partition%4 != 0 || start.Credit <= 0 {
		return nil, fmt.Errorf("autotune: starting setting %v needs a positive multiple-of-4 partition and positive credit", start)
	}
	c := &Controller{
		cfg:         cfg,
		rollbackPct: rollbackPct,
		latencyPct:  latencyPct,
		tuner:       newSuggester(cfg.Suggester, cfg.Seed),
		state:       StateWarmup,
		target:      start,
		pinned:      make(map[int]Setting),
		cand:        start,
		winFrom:     time.Now(),
		best:        start,
		decisions:   cfg.Metrics.Counter("autotune_decisions_total"),
		probeC:      cfg.Metrics.Counter("autotune_probes_total"),
		rollbackC:   cfg.Metrics.Counter("autotune_rollbacks_total"),
		retune:      cfg.Metrics.Counter("autotune_retunes_total"),
		gPart:       cfg.Metrics.Gauge("autotune_partition_bytes"),
		gCredit:     cfg.Metrics.Gauge("autotune_credit_bytes"),
		gState:      cfg.Metrics.Gauge("autotune_state"),
		hWindow:     cfg.Metrics.Histogram("autotune_window_iter_seconds"),
	}
	if cfg.Metrics != nil {
		for _, name := range []string{"netps_push_seconds", "netps_pull_seconds", "netar_op_seconds"} {
			c.ops = append(c.ops, cfg.Metrics.Histogram(name))
		}
	}
	c.report.Episodes = 1
	c.publishTarget()
	return c, nil
}

// ConfigFor returns the config every worker must apply for the given
// iteration. The first caller pins the controller's current target; later
// callers (other workers, at their own pace) read the same pinned value,
// so keyed transports — whose wire keys embed the partition count — stay
// consistent across workers even while the config moves.
func (c *Controller) ConfigFor(iter int) Setting {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.pinned[iter]; ok {
		return s
	}
	c.pinned[iter] = c.target
	delete(c.pinned, iter-64) // workers are at most a pass apart; prune far history
	return c.target
}

// ObserveIteration feeds one measured iteration duration (seconds) from
// the timing worker. Samples are attributed to the config pinned for that
// iteration: residue measured under a previous config and the first
// iteration after every switch are discarded, and a window is judged only
// after DwellIters clean samples (hysteresis).
func (c *Controller) ObserveIteration(iter int, seconds float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if iter < c.cfg.warmup || seconds <= 0 {
		return
	}
	s, ok := c.pinned[iter]
	if !ok {
		s = c.target
	}
	if s != c.cand {
		return
	}
	if c.skip > 0 {
		c.skip--
		return
	}
	if len(c.win) == 0 {
		c.winFrom = time.Now()
	}
	c.win = append(c.win, seconds)
	if len(c.win) < c.cfg.DwellIters {
		return
	}
	var sum float64
	for _, d := range c.win {
		sum += d
	}
	speed := float64(len(c.win)) / sum
	c.hWindow.Observe(sum / float64(len(c.win)))
	c.win = c.win[:0]
	c.judge(iter, speed)
}

// judge advances the state machine on one completed window. The window's
// transport op latency is read exactly once here (opDelta consumes the
// histogram delta) and threaded through every decision it informs.
func (c *Controller) judge(iter int, speed float64) {
	op := c.opDelta()
	switch c.state {
	case StateWarmup:
		// The starting config's window is the episode baseline.
		c.observeTuner(speed)
		c.adoptBest(c.cand, speed)
		c.decide(iter, "baseline", speed, op)
		c.nextProbe()
	case StateProbing:
		c.observeTuner(speed)
		if speed > c.bestSpeed {
			c.adoptBest(c.cand, speed)
		} else if speed < c.bestSpeed*(1-c.rollbackPct) && !c.rolled {
			// Guarded rollback: revert to best-known and re-validate it
			// before probing on; at most once per episode (see package doc).
			c.rolled = true
			c.report.Rollbacks++
			c.rollbackC.Inc()
			c.decide(iter, "rollback", speed, op)
			c.setCand(c.best, nil)
			c.state = StateRecovering
			return
		}
		c.decide(iter, "probe", speed, op)
		c.advance(iter, op)
	case StateRecovering:
		// Refresh the incumbent's speed under current conditions so later
		// comparisons are honest if the fabric shifted mid-episode.
		c.bestSpeed = speed
		c.decide(iter, "revalidate", speed, op)
		c.advance(iter, op)
	case StateSettled:
		slowSpeed := speed < c.baseline*(1-retunePct)
		slowOp := c.opBase > 0 && op > c.opBase*(1+c.latencyPct)
		if slowSpeed || slowOp {
			// One bad window is weather, two in a row is a shifted
			// fabric: hold the baselines (averaging the dip in would
			// mask a real regression) and wait for confirmation. The op
			// latency bar counts toward the same confirmation — a fabric
			// can degrade behind compute overlap before speed moves.
			c.slow++
			if c.slow >= 2 {
				c.startEpisode(iter, speed, op)
				return
			}
			c.decide(iter, "regressing", speed, op)
			return
		}
		c.slow = 0
		c.baseline = 0.7*c.baseline + 0.3*speed
		if op > 0 {
			if c.opBase == 0 {
				c.opBase = op
			} else {
				c.opBase = 0.7*c.opBase + 0.3*op
			}
		}
		c.report.SettledSpeed = c.baseline
		c.decide(iter, "steady", speed, op)
	}
}

// advance proposes the next probe or settles the episode.
func (c *Controller) advance(iter int, op float64) {
	if c.probes >= c.cfg.Trials {
		c.settle(iter, op)
		return
	}
	c.nextProbe()
}

// nextProbe asks the suggester for the next config and targets it.
func (c *Controller) nextProbe() {
	x := c.tuner.Next()
	c.probes++
	c.report.Probes++
	c.probeC.Inc()
	c.setCand(settingFromVector(x), x)
	c.state = StateProbing
}

// settle adopts the episode's best config and enters steady-state watch.
// The op-latency baseline is left for the first steady window to seed:
// this window measured the last probe, not the adopted config.
func (c *Controller) settle(iter int, op float64) {
	c.setCand(c.best, nil)
	c.baseline = c.bestSpeed
	c.opBase = 0
	c.report.Settled = true
	c.report.SettledSpeed = c.baseline
	c.state = StateSettled
	c.decide(iter, "adopt", c.bestSpeed, op)
}

// startEpisode begins a fresh search after a sustained regression,
// seeding the new suggester with the degraded incumbent observation.
func (c *Controller) startEpisode(iter int, speed, op float64) {
	c.episode++
	c.report.Episodes++
	c.report.Retunes++
	c.retune.Inc()
	c.decide(iter, "retune", speed, op)
	c.tuner = newSuggester(c.cfg.Suggester, c.cfg.Seed+int64(c.episode)*7919)
	c.observeTuner(speed)
	c.best = c.cand
	c.bestSpeed = speed
	c.probes = 0
	c.rolled = false
	c.slow = 0
	c.report.Settled = false
	c.nextProbe()
}

// observeTuner records the current candidate's window speed with the
// suggester, clamped into the search box when the candidate came from
// outside it (the starting config, or a rolled-back incumbent).
func (c *Controller) observeTuner(speed float64) {
	x := c.candX
	if x == nil {
		x = tune.VectorFromParams(c.cand.Partition, c.cand.Credit)
		tune.ParamBounds().Clamp(x)
	}
	c.tuner.Observe(x, speed)
}

// adoptBest replaces the incumbent.
func (c *Controller) adoptBest(s Setting, speed float64) {
	c.best = s
	c.bestSpeed = speed
	c.report.Best = s
	c.report.BestSpeed = speed
}

// setCand switches the judgment target: workers pin the new config from
// their next iteration on, and one transition iteration is discarded.
func (c *Controller) setCand(s Setting, x []float64) {
	c.cand = s
	c.candX = x
	c.target = s
	c.skip = 1
	c.win = c.win[:0]
	c.publishTarget()
}

// publishTarget mirrors the target config into the gauges.
func (c *Controller) publishTarget() {
	c.gPart.Set(c.target.Partition)
	c.gCredit.Set(c.target.Credit)
	c.gState.Set(int64(c.state))
}

// decide appends to the decision log and emits metrics/trace. op is the
// window's mean transport op latency, already read by judge.
func (c *Controller) decide(iter int, action string, speed, op float64) {
	d := Decision{
		Iter: iter, Setting: c.cand, Speed: speed,
		OpSeconds: op, State: c.state, Action: action,
	}
	c.report.Decisions = append(c.report.Decisions, d)
	c.decisions.Inc()
	c.gState.Set(int64(c.state))
	if c.cfg.Trace != nil {
		c.cfg.Trace.Add("autotune", fmt.Sprintf("%s %v %.1f it/s", action, c.cand, speed), c.winFrom, time.Now())
	}
	c.winFrom = time.Now()
}

// opDelta returns the mean transport op latency since the previous judged
// window, across whichever netps_*/netar_* histograms are live. Each call
// consumes the delta, so judge reads it exactly once per window.
func (c *Controller) opDelta() float64 {
	var count uint64
	var sum float64
	for _, h := range c.ops {
		count += h.Count()
		sum += h.Sum()
	}
	dc, ds := count-c.opsCount, sum-c.opsSum
	c.opsCount, c.opsSum = count, sum
	if dc == 0 {
		return 0
	}
	return ds / float64(dc)
}

// State returns the controller's current control-loop state.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Report snapshots the run summary; safe to call mid-run or after.
func (c *Controller) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.report
	r.Best = c.best
	r.BestSpeed = c.bestSpeed
	r.Final = c.target
	r.Decisions = append([]Decision(nil), c.report.Decisions...)
	return r
}
