package netps

import "time"

// Config gathers the client's transport-hardening and batching knobs in
// one documented place. Apply it wholesale with WithConfig; the individual
// With* options remain for piecemeal overrides and win when applied after
// a Config. The server is configured by its own ServerOptions.
//
// The zero value of any field means "keep the default" (PullTimeout is the
// exception: its default already is 0 / wait-forever).
//
// See docs/ARCHITECTURE.md ("Live path") for where each knob bites.
type Config struct {
	// Timeout bounds each frame write and each push-response read.
	// Default DefaultTimeout.
	Timeout time.Duration
	// PullTimeout bounds how long a pull may wait for cross-worker
	// aggregation. Default 0: wait forever — a
	// closing server fails waiters instead of leaking them, so a deadline
	// is only needed to bound tail latency.
	PullTimeout time.Duration
	// Retries is the per-request transport retry budget (dial failures,
	// timeouts, broken connections). Default DefaultRetries. Negative
	// means 0: fail fast.
	Retries int
	// BackoffBase is the first retry delay; it doubles per attempt.
	// Default DefaultBackoffBase.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff. Default DefaultBackoffMax.
	BackoffMax time.Duration
	// BackoffJitter is the multiplicative jitter fraction applied to every
	// backoff delay (deterministic per client), decorrelating worker retry
	// storms. Default DefaultBackoffJitter.
	BackoffJitter float64
	// BatchBytes is the Batcher's flush threshold: queued sub-message
	// payload bytes beyond which the pending batch is written immediately.
	// Default DefaultBatchBytes.
	BatchBytes int
	// BatchDelay is the Batcher's flush deadline: the longest a queued
	// sub-message may wait for companions before the batch is written
	// anyway. This is what keeps priority scheduling intact under
	// coalescing — an urgent partition is delayed at most BatchDelay, not
	// until a size threshold fills. Default DefaultBatchDelay.
	BatchDelay time.Duration
}

// WithConfig applies cfg to a client; zero-valued fields keep their
// defaults.
func WithConfig(cfg Config) Option {
	return func(c *Client) {
		if cfg.Timeout > 0 {
			c.timeout = cfg.Timeout
		}
		if cfg.PullTimeout > 0 {
			c.pullTimeout = cfg.PullTimeout
		}
		if cfg.Retries != 0 {
			c.maxRetries = cfg.Retries
			if c.maxRetries < 0 {
				c.maxRetries = 0
			}
		}
		if cfg.BackoffBase > 0 {
			c.retryDelay.Base = cfg.BackoffBase
		}
		if cfg.BackoffMax > 0 {
			c.retryDelay.Max = cfg.BackoffMax
		}
		if cfg.BackoffJitter > 0 {
			c.retryDelay.Jitter = cfg.BackoffJitter
		}
		if cfg.BatchBytes > 0 {
			c.batchBytes = cfg.BatchBytes
		}
		if cfg.BatchDelay > 0 {
			c.batchDelay = cfg.BatchDelay
		}
	}
}
