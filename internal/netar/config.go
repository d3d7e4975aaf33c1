package netar

import "time"

// Default hardening knobs; override with Options or a Config (see
// WithConfig / DefaultConfig). They mirror netps where the semantics
// coincide, and add ring-specific knobs (StepTimeout, MaxPending) where a
// persistent cyclic transport needs bounds netps does not.
const (
	// DefaultTimeout bounds each frame write to the successor.
	DefaultTimeout = 15 * time.Second
	// DefaultStepTimeout bounds how long one schedule step may wait for the
	// predecessor's segment. A dead or wedged peer then surfaces as an
	// error on every survivor instead of a silent ring-wide hang.
	DefaultStepTimeout = 30 * time.Second
	// DefaultDialRetries is the successor-dial retry budget. Ring bring-up
	// is inherently racy — every peer dials while its successor is still
	// binding — so the budget is generous.
	DefaultDialRetries = 20
	// DefaultBackoffBase is the first dial-retry delay; it doubles per
	// attempt.
	DefaultBackoffBase = 5 * time.Millisecond
	// DefaultBackoffMax caps the exponential dial backoff.
	DefaultBackoffMax = 500 * time.Millisecond
	// DefaultBackoffJitter is the deterministic multiplicative jitter
	// applied to every backoff delay, decorrelating peer dial storms.
	DefaultBackoffJitter = 0.25
	// DefaultMaxPending bounds the pending-slot table: how many
	// (key, iter, step) segments may sit parked waiting for their local
	// collective to reach them. A misbehaving predecessor therefore cannot
	// balloon memory; excess segments are rejected with OpErr.
	DefaultMaxPending = 4096
)

// Config gathers every transport-hardening knob in one documented place.
// Apply wholesale with WithConfig; the zero value of any field means "keep
// the default", so a Config built by mutating DefaultConfig() is always
// safe.
type Config struct {
	// Timeout bounds each frame write to the successor. Default
	// DefaultTimeout.
	Timeout time.Duration
	// StepTimeout bounds how long one schedule step waits for the
	// predecessor's segment before the collective fails. Default
	// DefaultStepTimeout. Negative disables the bound (wait forever —
	// Close still fails blocked waiters).
	StepTimeout time.Duration
	// DialRetries is the successor-dial retry budget. Default
	// DefaultDialRetries. Negative means 0: fail fast.
	DialRetries int
	// BackoffBase is the first dial-retry delay; it doubles per attempt.
	// Default DefaultBackoffBase.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff. Default DefaultBackoffMax.
	BackoffMax time.Duration
	// BackoffJitter is the multiplicative jitter fraction applied to every
	// backoff delay (deterministic per peer). Default DefaultBackoffJitter.
	BackoffJitter float64
	// MaxPending bounds the pending-slot table (parked out-of-order
	// segments). Default DefaultMaxPending.
	MaxPending int
}

// DefaultConfig returns the package defaults, ready to mutate.
func DefaultConfig() Config {
	return Config{
		Timeout:       DefaultTimeout,
		StepTimeout:   DefaultStepTimeout,
		DialRetries:   DefaultDialRetries,
		BackoffBase:   DefaultBackoffBase,
		BackoffMax:    DefaultBackoffMax,
		BackoffJitter: DefaultBackoffJitter,
		MaxPending:    DefaultMaxPending,
	}
}

// WithConfig applies cfg; zero-valued fields keep their defaults.
func WithConfig(cfg Config) Option {
	return func(p *Peer) {
		if cfg.Timeout > 0 {
			p.timeout = cfg.Timeout
		}
		if cfg.StepTimeout != 0 {
			p.stepTimeout = cfg.StepTimeout
			if p.stepTimeout < 0 {
				p.stepTimeout = 0
			}
		}
		if cfg.DialRetries != 0 {
			p.dialRetries = cfg.DialRetries
			if p.dialRetries < 0 {
				p.dialRetries = 0
			}
		}
		if cfg.BackoffBase > 0 {
			p.dialDelay.Base = cfg.BackoffBase
		}
		if cfg.BackoffMax > 0 {
			p.dialDelay.Max = cfg.BackoffMax
		}
		if cfg.BackoffJitter > 0 {
			p.dialDelay.Jitter = cfg.BackoffJitter
		}
		if cfg.MaxPending > 0 {
			p.maxPending = cfg.MaxPending
		}
	}
}
