package netps

// completedLog remembers recently reclaimed (key, iter) aggregates so a
// retried pull whose response was lost on the wire can be re-answered —
// without it, the retry would recreate an empty entry and block on pushes
// that already happened (the reclaimed-pull hang this PR fixes).
//
// Two FIFO tiers bound the memory:
//
//   - payload tier: full encoded aggregates under a byte budget. A hit
//     re-answers the retry with the same bytes the lost response carried.
//   - identity tier: (key, iter) pairs only, count-bounded. A hit after
//     the payload aged out proves the aggregate existed but is gone, so
//     the retry fails fast with OpErr instead of hanging.
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

	payloads map[entryKey]agg
	order    []entryKey // payload-tier FIFO

	knownCap   int // identity-tier size, at least 1
	knownSet   map[entryKey]struct{}
	knownOrder []entryKey // identity-tier FIFO
}

func newCompletedLog(budget, knownCap int) completedLog {
	return completedLog{
		budget:   budget,
		payloads: make(map[entryKey]agg),
		knownCap: knownCap,
		knownSet: make(map[entryKey]struct{}),
	}
}

// add records a reclaimed aggregate (payload plus the codec envelope
// fields a re-answered pull must echo). The payload is retained by
// reference (it is the entry's frozen encoded buffer — nothing mutates it
// after aggregation completes).
func (l *completedLog) add(k entryKey, a agg) {
	if _, ok := l.knownSet[k]; !ok {
		if len(l.knownOrder) >= l.knownCap {
			old := l.knownOrder[0]
			l.knownOrder = l.knownOrder[1:]
			delete(l.knownSet, old)
		}
		l.knownSet[k] = struct{}{}
		l.knownOrder = append(l.knownOrder, k)
	}
	if l.budget <= 0 || len(a.payload) > l.budget {
		return // payload can never fit; the identity tier still covers it
	}
	if old, ok := l.payloads[k]; ok {
		// Same (key, iter) reclaimed again (e.g. after a crash-recovery
		// re-push): keep the newest payload, adjust usage in place.
		l.bytes += len(a.payload) - len(old.payload)
		l.payloads[k] = a
	} else {
		l.payloads[k] = a
		l.order = append(l.order, k)
		l.bytes += len(a.payload)
	}
	for l.bytes > l.budget && len(l.order) > 0 {
		old := l.order[0]
		l.order = l.order[1:]
		if p, ok := l.payloads[old]; ok {
			l.bytes -= len(p.payload)
			delete(l.payloads, old)
		}
	}
}

// payload returns the retained aggregate for k, if its payload is still
// within budget.
func (l *completedLog) payload(k entryKey) (agg, bool) {
	p, ok := l.payloads[k]
	return p, ok
}

// known reports whether k completed recently enough to be remembered at
// all (payload retained or already evicted).
func (l *completedLog) known(k entryKey) bool {
	_, ok := l.knownSet[k]
	return ok
}
