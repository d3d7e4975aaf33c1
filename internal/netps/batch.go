package netps

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// BatchPush is one gradient push inside a coalesced batch.
type BatchPush struct {
	Key  string
	Iter uint32
	Grad []float32
}

// roundTripBatch sends framed sub-requests under one OpBatch envelope and
// returns the framed sub-responses in request order. Sub-request Seqs must
// already be assigned by the caller (and are therefore stable across the
// envelope's transport retries, which is what lets the server deduplicate
// replayed sub-pushes individually).
func (c *Client) roundTripBatch(subs []message) ([]message, error) {
	payload, err := encodeBatch(subs)
	if err != nil {
		return nil, err
	}
	c.inst.batches.Inc()
	c.inst.batchedMsgs.Add(uint64(len(subs)))
	// The sub-responses alias the payload they are parsed from, so it is
	// copied out of the connection's read buffer.
	var resp []byte
	if err := c.roundTrip(newMessage(OpBatch, "", 0, 0, payload), func(m message) { resp = slices.Clone(m.Payload) }); err != nil {
		return nil, err
	}
	out, err := decodeBatch(resp)
	if err != nil {
		return nil, err
	}
	if len(out) != len(subs) {
		return nil, fmt.Errorf("netps: batch answered %d of %d sub-requests", len(out), len(subs))
	}
	for i := range out {
		if out[i].Seq != subs[i].Seq || (Op(out[i].Op) != OpErr && (out[i].Key != subs[i].Key || out[i].Iter != subs[i].Iter)) {
			return nil, fmt.Errorf("netps: mismatched batch sub-response %d (%v/%s/%d)", i, out[i].Op, out[i].Key, out[i].Iter)
		}
	}
	return out, nil
}

// subErr converts an OpErr sub-response into a ServerError, nil otherwise.
func subErr(m message) error {
	if Op(m.Op) == OpErr {
		return &ServerError{Msg: string(m.Payload)}
	}
	return nil
}

// PushBatch sends several gradient pushes to this shard under one framed
// write — one round trip, one per-message overhead θ — and returns one
// error slot per item (a *ServerError for individually rejected pushes).
// The second return value is the transport outcome for the whole batch: if
// non-nil, no per-item result is meaningful. Replayed batches (client
// retried after a lost ack) are safe: each sub-push keeps its own Seq, so
// the server acknowledges duplicates without double-summing.
func (c *Client) PushBatch(items []BatchPush) ([]error, error) {
	if len(items) == 0 {
		return nil, nil
	}
	subs := make([]message, len(items))
	for i, it := range items {
		subs[i] = c.pushMessage(nil, it.Key, it.Iter, it.Grad)
		subs[i].Seq = c.nextSeq()
	}
	out, err := c.roundTripBatch(subs)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(items))
	for i := range out {
		if errs[i] = subErr(out[i]); errs[i] == nil {
			c.inst.bytesPushed.Add(uint64(len(subs[i].Payload)))
		} else {
			c.inst.serverErrors.Inc()
		}
	}
	return errs, nil
}

// Batcher coalesces pushes to one shard into OpBatch frames, amortizing
// the per-message overhead θ without giving up scheduling timeliness: a
// queued push waits at most the flush deadline (DefaultBatchDelay) for
// companions before being written anyway, and a queue exceeding
// DefaultBatchBytes flushes immediately. Because the scheduler releases
// partitions in priority order, the pushes that coalesce within one
// deadline window are exactly the equal-priority sub-partitions Theorem 1
// is indifferent about — batching never reorders across priorities.
//
// Push is asynchronous: the per-item done callback reports the outcome.
// Batcher is safe for concurrent use; Close flushes the remainder.
type Batcher struct {
	c *Client

	mu      sync.Mutex
	pending []pendingPush
	bytes   int
	timer   *time.Timer
	closed  bool
	wg      sync.WaitGroup
}

type pendingPush struct {
	item BatchPush
	done func(error)
}

func (p pendingPush) finish(err error) {
	if p.done != nil {
		p.done(err)
	}
}

// NewBatcher wraps the client in a coalescing push queue using the
// DefaultBatchBytes / DefaultBatchDelay thresholds.
func NewBatcher(c *Client) *Batcher {
	return &Batcher{c: c}
}

// Push queues one gradient push; done (optional) fires with the item's
// outcome once its batch completes. The push is written after at most the
// flush deadline, sooner if the queue fills or Flush is called.
func (b *Batcher) Push(key string, iter uint32, grad []float32, done func(error)) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		pendingPush{done: done}.finish(fmt.Errorf("netps: batcher closed"))
		return
	}
	b.pending = append(b.pending, pendingPush{item: BatchPush{Key: key, Iter: iter, Grad: grad}, done: done})
	b.bytes += 4 * len(grad)
	if b.bytes >= b.c.batchBytes {
		batch := b.takeLocked()
		b.mu.Unlock()
		b.send(batch) // size flush: synchronous, natural backpressure
		return
	}
	if b.timer == nil {
		b.timer = time.AfterFunc(b.c.batchDelay, b.deadlineFlush)
	}
	b.mu.Unlock()
}

// takeLocked detaches the pending queue and stops the deadline timer.
// Caller holds b.mu.
func (b *Batcher) takeLocked() []pendingPush {
	batch := b.pending
	b.pending = nil
	b.bytes = 0
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// deadlineFlush is the timer callback: whatever queued within the window
// goes out now, preserving scheduling timeliness.
func (b *Batcher) deadlineFlush() {
	b.mu.Lock()
	b.timer = nil
	if b.closed || len(b.pending) == 0 {
		b.mu.Unlock()
		return
	}
	batch := b.takeLocked()
	// Add happens under b.mu with closed==false, so it is ordered before
	// Close's closed=true and therefore before Close's wg.Wait.
	b.wg.Add(1)
	b.mu.Unlock()
	defer b.wg.Done()
	b.send(batch)
}

// Flush synchronously writes whatever is queued; done callbacks for those
// items fire before Flush returns.
func (b *Batcher) Flush() {
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	b.send(batch)
}

// FlushAsync detaches the pending queue and writes it on a fresh
// goroutine. This is the form a scheduler flush hook should use: hooks run
// under the scheduler's lock and must not block on network I/O. Close
// waits for async flushes in flight.
func (b *Batcher) FlushAsync() {
	b.mu.Lock()
	if b.closed || len(b.pending) == 0 {
		b.mu.Unlock()
		return
	}
	batch := b.takeLocked()
	b.wg.Add(1) // under b.mu with closed==false: ordered before Close's Wait
	b.mu.Unlock()
	go func() {
		defer b.wg.Done()
		b.send(batch)
	}()
}

// Close flushes the remainder, waits for in-flight deadline flushes, and
// fails all subsequent pushes.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	b.send(batch)
	b.wg.Wait()
}

// send writes one detached batch. A single queued item skips the batch
// envelope entirely — a lone push gains nothing from OpBatch framing.
func (b *Batcher) send(batch []pendingPush) {
	switch len(batch) {
	case 0:
		return
	case 1:
		batch[0].finish(b.c.Push(batch[0].item.Key, batch[0].item.Iter, batch[0].item.Grad))
		return
	}
	items := make([]BatchPush, len(batch))
	for i := range batch {
		items[i] = batch[i].item
	}
	errs, err := b.c.PushBatch(items)
	for i := range batch {
		if err != nil {
			batch[i].finish(err)
		} else {
			batch[i].finish(errs[i])
		}
	}
}
