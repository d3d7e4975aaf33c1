package netps

import (
	"errors"
	"sync/atomic"
)

// errBatcherClosed fails a Batcher.Push after Close.
var errBatcherClosed = errors.New("netps: batcher closed")

// Batcher is Client.Push behind a callback, kept for callers written
// against the flush-hook surface. It holds nothing back: the client's
// connection already puts whatever queues behind a write into the next
// single writev, so there is no queue, timer or threshold, and nothing to
// flush. Batcher is safe for concurrent use.
type Batcher struct {
	c      *Client
	closed atomic.Bool
}

// NewBatcher wraps the client.
func NewBatcher(c *Client) *Batcher { return &Batcher{c: c} }

// Push sends one gradient push and calls done (optional) with its outcome
// before it returns.
func (b *Batcher) Push(key string, iter uint32, grad []float32, done func(error)) {
	err := errBatcherClosed
	if !b.closed.Load() {
		err = b.c.Push(key, iter, grad)
	}
	if done != nil {
		done(err)
	}
}

// FlushAsync does nothing — no push ever waits in a Batcher — and is
// therefore safe as a scheduler flush hook.
func (b *Batcher) FlushAsync() {}

// Close fails every later Push; pushes already under way complete.
func (b *Batcher) Close() { b.closed.Store(true) }
