package netps

// completedLog remembers recently reclaimed (key, iter) aggregates so a
// retried pull whose response was lost on the wire can be re-answered —
// without it, the retry would recreate an empty entry and block on pushes
// that already happened.
//
// Two FIFO tiers bound the memory:
//
//   - payload tier: full encoded aggregates under a byte budget. A hit
//     re-answers the retry with the same bytes the lost response carried.
//   - identity tier: (key, iter) pairs only, count-bounded. A hit after
//     the payload aged out proves the aggregate existed but is gone, so
//     the retry fails fast with OpErr instead of hanging.
//
// The identity tier also answers a late push replay (one with a client
// Seq): it is acknowledged, never summed into a fresh aggregate.
//
// A total miss means the pull is legitimately early (pulls may precede
// pushes), and the caller creates a live entry as usual. FIFO is the
// right eviction order here: client retry budgets expire in bounded time,
// so the oldest completions are the least likely to still be retried.
//
// completedLog is not safe for concurrent use; each shard guards its own
// instance with the shard lock.
type completedLog struct {
	budget int // payload-tier byte budget; <= 0 disables the tier
	bytes  int // current payload-tier usage

	payloads map[entryKey]*agg
	order    fifo // payload-tier FIFO

	knownCap   int // identity-tier size, at least 1
	knownSet   map[entryKey]struct{}
	knownOrder fifo // identity-tier FIFO
}

// fifo is a ring of keys that grows only when full.
type fifo struct {
	buf     []entryKey
	head, n int
}

func (q *fifo) push(k entryKey) {
	if q.n == len(q.buf) { // unroll oldest-first into twice the room
		q.buf = append(append(make([]entryKey, 0, max(8, 2*q.n)), q.buf[q.head:]...), q.buf[:q.head]...)
		q.buf, q.head = q.buf[:cap(q.buf)], 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = k
	q.n++
}

func (q *fifo) pop() entryKey {
	k := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return k
}

func newCompletedLog(budget, knownCap int) completedLog {
	return completedLog{
		budget:   budget,
		payloads: make(map[entryKey]*agg),
		knownCap: knownCap,
		knownSet: make(map[entryKey]struct{}),
	}
}

// add records a reclaimed aggregate (payload plus the codec envelope
// fields a re-answered pull must echo) with the entry's reference to it,
// which a payload the tier cannot hold, replacement and eviction drop.
func (l *completedLog) add(k entryKey, a *agg, sh *shard) {
	if _, ok := l.knownSet[k]; !ok {
		if l.knownOrder.n >= l.knownCap {
			delete(l.knownSet, l.knownOrder.pop())
		}
		l.knownSet[k] = struct{}{}
		l.knownOrder.push(k)
	}
	if l.budget <= 0 || len(a.payload) > l.budget {
		sh.unref(a)
		return // payload can never fit; the identity tier still covers it
	}
	if old, ok := l.payloads[k]; ok {
		// Same (key, iter) reclaimed again (re-aggregated from Seq-0
		// pushes, which name no client): keep the newest payload, adjust
		// usage in place.
		l.bytes += len(a.payload) - len(old.payload)
		l.payloads[k] = a
		sh.unref(old)
	} else {
		l.payloads[k] = a
		l.order.push(k)
		l.bytes += len(a.payload)
	}
	for l.bytes > l.budget && l.order.n > 0 {
		old := l.order.pop()
		if p, ok := l.payloads[old]; ok {
			l.bytes -= len(p.payload)
			delete(l.payloads, old)
			sh.unref(p)
		}
	}
}

// payload returns the retained aggregate for k, if its payload is still
// within budget.
func (l *completedLog) payload(k entryKey) (*agg, bool) {
	p, ok := l.payloads[k]
	return p, ok
}

// known reports whether k completed recently enough to be remembered at
// all (payload retained or already evicted).
func (l *completedLog) known(k entryKey) bool {
	_, ok := l.knownSet[k]
	_, kept := l.payloads[k]
	return ok || kept
}
