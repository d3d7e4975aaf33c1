package netar

import (
	"time"

	"bytescheduler/internal/wire"
)

// Hardening bounds. They mirror netps where the semantics coincide, and add
// ring-specific ones (DefaultStepTimeout, DefaultMaxPending) where a
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

// dialDelay is the successor-dial backoff policy.
var dialDelay = wire.Backoff{Base: DefaultBackoffBase, Max: DefaultBackoffMax, Jitter: DefaultBackoffJitter}
