package netps

import "time"

// Config gathers the Batcher's knobs. Apply it with WithConfig; the
// transport-hardening knobs (deadlines, retry budget, backoff) are the
// WithTimeout, WithPullTimeout, WithRetries and WithBackoff options. The
// server is configured by its own ServerOptions.
//
// The zero value of any field means "keep the default".
//
// See docs/ARCHITECTURE.md ("Live path") for where each knob bites.
type Config struct {
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
		if cfg.BatchBytes > 0 {
			c.batchBytes = cfg.BatchBytes
		}
		if cfg.BatchDelay > 0 {
			c.batchDelay = cfg.BatchDelay
		}
	}
}
