package netps

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"

	"bytescheduler/internal/metrics"
	"bytescheduler/internal/wire"
)

// replayState is everything the server remembers to recognize replays:
// live entries and the clients they list, and the aggregates retained in
// the keys' done slots.
type replayState struct {
	entries, maxListed, retained int
}

func stateOf(srv *Server) (st replayState) {
	for _, sh := range srv.shards {
		sh.mu.Lock()
		st.entries += len(sh.entries)
		for _, e := range sh.entries {
			st.maxListed = max(st.maxListed, len(e.pushers), len(e.pullers))
		}
		st.retained += len(sh.done)
		sh.mu.Unlock()
	}
	return st
}

// pushAt and pullAt drive one request through the server's handlers in
// process, failing unless a push is acknowledged and a pull is answered at
// once (so none is ever parked for a push to wake); pullAt counts the pull
// served, as answer does after its write.
func pushAt(t *testing.T, srv *Server, key string, iter uint32, seq uint64, v ...float32) {
	t.Helper()
	resp, wake, _ := srv.processPush(newMessage(OpPush, key, iter, seq, f32(v...)), new(pushScratch))
	if Op(resp.Op) != OpPush || len(wake) != 0 {
		t.Fatalf("push %s#%d seq %#x answered %v %q, woke %d", key, iter, seq, Op(resp.Op), resp.Payload, len(wake))
	}
}

func pullAt(t *testing.T, srv *Server, key string, iter uint32, seq uint64) []float32 {
	t.Helper()
	req := newMessage(OpPull, key, iter, seq, nil)
	a, parked, errResp := srv.resolvePull(req, nil)
	if parked || errResp != nil {
		t.Fatalf("pull %s#%d seq %#x not answered (parked %v, err %v)", key, iter, seq, parked, errResp)
	}
	resp := pullResp(req, a)
	vals, err := wire.Floats(nil, resp.Header, resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	srv.countPullServed(req, a)
	return vals
}

// TestDedupWindowBounded pushes, replays and pulls 32 868 (key, iter)
// pairs over seven keys. Replay state lives only in live entries and the
// keys' done slots: with every entry reclaimed nothing is left per entry
// or per client, and exactly one aggregate per key is retained. A late
// push replay of any reclaimed iteration, the oldest as well as the
// newest, is still acknowledged without being summed.
func TestDedupWindowBounded(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := NewServer(1, func(s *Server) { s.shardCount = 1 }, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const keys, n = 7, 32868
	for i := uint32(0); i < n; i++ {
		key := fmt.Sprintf("k%d", i%keys)
		pushAt(t, srv, key, i, 1<<32|uint64(3*i+1), 1)
		pushAt(t, srv, key, i, 1<<32|uint64(3*i+2), 1) // re-sent under a fresh Seq
		if got := pullAt(t, srv, key, i, 1<<32|uint64(3*i+3)); len(got) != 1 || got[0] != 1 {
			t.Fatalf("%s#%d = %v, want [1]", key, i, got)
		}
	}
	if st := stateOf(srv); st.entries != 0 || st.retained != keys {
		t.Fatalf("replay state after %d aggregates = %+v, want no live entry and %d retained", n, st, keys)
	}
	// Late replays of the newest and the oldest aggregate are acknowledged.
	pushAt(t, srv, fmt.Sprintf("k%d", (n-1)%keys), n-1, 1<<32|uint64(3*n+1), 1)
	pushAt(t, srv, "k0", 0, 1<<32|uint64(3*n+2), 1)
	if st := stateOf(srv); st.entries != 0 {
		t.Fatalf("a late replay made a live entry: %+v", st)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["netps_server_dedup_hits_total"]; got != n+2 {
		t.Fatalf("dedup hits = %d, want %d", got, n+2)
	}
	if got := snap.Gauges["netps_server_entries"]; got != 0 {
		t.Fatalf("entries gauge = %d, want 0", got)
	}
}

// TestDedupClientWindowsBounded sprays pushes and pulls from hundreds of
// client identities, each re-sending both under fresh Seqs. No state is kept
// per client: each live entry lists at most its workers, and once every
// worker has been served nothing but each key's last reclaimed aggregate
// remains.
func TestDedupClientWindowsBounded(t *testing.T) {
	const workers, clients = 4, 300
	reg := metrics.NewRegistry()
	srv, addr := startServer(t, workers, WithServerMetrics(reg))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rt := func(m message) message {
		t.Helper()
		if err := writeMsg(conn, m); err != nil {
			t.Fatal(err)
		}
		resp, err := readMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		if Op(resp.Op) != Op(m.Op) {
			t.Fatalf("%v %s answered %v %q", Op(m.Op), m.Key, Op(resp.Op), resp.Payload)
		}
		return resp
	}
	key := func(c int) string { return fmt.Sprintf("k%d", (c-1)/workers) }
	for c := 1; c <= clients; c++ {
		for n := uint64(1); n <= 2; n++ {
			rt(newMessage(OpPush, key(c), 0, uint64(c)<<32|n, f32(1)))
		}
	}
	if st := stateOf(srv); st.entries != clients/workers || st.maxListed != workers {
		t.Fatalf("after pushes: %+v, want %d entries listing %d clients each", st, clients/workers, workers)
	}
	for c := 1; c <= clients; c++ {
		for n := uint64(3); n <= 4; n++ { // the pull and its retry
			resp := rt(newMessage(OpPull, key(c), 0, uint64(c)<<32|n, nil))
			if vals, err := wire.Floats(nil, resp.Header, resp.Payload); err != nil || len(vals) != 1 || vals[0] != workers {
				t.Fatalf("client %d pull = %v (%v), want [%d]", c, vals, err, workers)
			}
		}
	}
	if st := stateOf(srv); st.entries != 0 || st.retained != clients/workers {
		t.Fatalf("after pulls: %+v, want no live entry and %d retained", st, clients/workers)
	}
	// Every re-push is a hit, and so is every pull retry but the last
	// worker's of each entry, which the key's done slot answers.
	snap := reg.Snapshot()
	if got, want := snap.Counters["netps_server_dedup_hits_total"], uint64(clients+clients-clients/workers); got != want {
		t.Fatalf("dedup hits = %d, want %d", got, want)
	}
	if got := snap.Counters["netps_server_replayed_pulls_total"]; got != clients/workers {
		t.Fatalf("replayed pulls = %d, want %d", got, clients/workers)
	}
}

// TestPushReplayAcksWithoutDoubleSum replays a push with the same Seq (a
// retry after a lost ack) and checks the aggregate counts it exactly once
// while the replay is still acknowledged.
func TestPushReplayAcksWithoutDoubleSum(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := NewServer(2, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	seq := uint64(7)<<32 | 1
	push := newMessage(OpPush, "w", 3, seq, f32(2))
	for attempt := 0; attempt < 2; attempt++ { // original + replay
		if err := writeMsg(conn, push); err != nil {
			t.Fatal(err)
		}
		resp, err := readMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		if Op(resp.Op) != OpPush || resp.Seq != seq {
			t.Fatalf("attempt %d response: %+v", attempt, resp)
		}
	}
	// Second worker's push completes the aggregate.
	push2 := newMessage(OpPush, "w", 3, uint64(8)<<32|1, f32(5))
	if err := writeMsg(conn, push2); err != nil {
		t.Fatal(err)
	}
	if _, err := readMsg(conn); err != nil {
		t.Fatal(err)
	}
	pull := newMessage(OpPull, "w", 3, uint64(7)<<32|2, nil)
	if err := writeMsg(conn, pull); err != nil {
		t.Fatal(err)
	}
	resp, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := wire.Floats(nil, resp.Header, resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 7 {
		t.Fatalf("aggregate = %v, want [7] (replayed push summed twice?)", vals)
	}
	if got := reg.Snapshot().Counters["netps_server_dedup_hits_total"]; got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}
}

// TestRepushUnderFreshSeqCountedOnce is the core-level retry: a worker
// re-sends its push under a fresh Seq, which no transport-level window
// recognizes. The server keys replay on the worker, so the re-push is
// acknowledged and not summed, and the other worker's push still fits.
func TestRepushUnderFreshSeqCountedOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	_, addr := startServer(t, 2, WithServerMetrics(reg))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rt := func(m message) message {
		t.Helper()
		if err := writeMsg(conn, m); err != nil {
			t.Fatal(err)
		}
		resp, err := readMsg(conn)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, push := range []message{
		newMessage(OpPush, "w", 3, 7<<32|1, f32(2)),
		newMessage(OpPush, "w", 3, 7<<32|2, f32(2)), // worker 7's re-push
		newMessage(OpPush, "w", 3, 8<<32|1, f32(5)),
	} {
		if resp := rt(push); Op(resp.Op) != OpPush || resp.Seq != push.Seq {
			t.Fatalf("push seq %#x answered %v %q", push.Seq, Op(resp.Op), resp.Payload)
		}
	}
	resp := rt(newMessage(OpPull, "w", 3, 7<<32|3, nil))
	if vals, err := wire.Floats(nil, resp.Header, resp.Payload); err != nil || len(vals) != 1 || vals[0] != 7 {
		t.Fatalf("aggregate = %v (%v), want [7]", vals, err)
	}
	if got := reg.Snapshot().Counters["netps_server_dedup_hits_total"]; got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}
}

// TestReplayProperty drives the server's handlers in process — no sockets —
// through seeded random interleavings of every worker's push and pull of
// several keys over several iterations. Each worker walks its iterations in
// order, keys shuffled within each, and pushes a key's next iteration only
// once its pull of the one before has returned: the contract replay after
// reclaim rests on. Replays are injected between steps: a push again under
// its own Seq (a lost ack) or re-sent under a fresh Seq (a core-level
// retry), at any time; a served pull retried, until its worker pushes the
// key's next iteration; and a pull for an iteration older than its key's
// last reclaimed one, which no worker sends. Every aggregate must equal the
// sum of the distinct workers' vectors, no push be rejected, the dedup hits
// equal the replays that reached a live entry's lists or a done slot's push
// check, every parked pull be woken exactly once, by the push that
// completes its aggregate, every older pull fail fast as lost, never parked
// or answered, and no entry outlive its last pull.
func TestReplayProperty(t *testing.T) {
	type part struct {
		key    string
		iter   uint32
		floats int
	}
	type parked struct {
		req message
		p   part
		w   int
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers, keys, iters := 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(3)
		reg := metrics.NewRegistry()
		shards := 1 + rng.Intn(3)
		srv, err := NewServer(workers, func(s *Server) { s.shardCount = shards }, WithServerMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		// fail leaves srv open: Close would answer the pulls parked here,
		// which have no connection.
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (%d workers): %s", seed, workers, fmt.Sprintf(format, args...))
		}
		vec := func(p part, w int) []float32 {
			v := make([]float32, p.floats)
			for i := range v {
				v[i] = float32((w+1)*(i+1) + 7*int(p.iter))
			}
			return v
		}
		want := func(p part) []float32 {
			sum := make([]float32, p.floats)
			for w := 0; w < workers; w++ {
				for i, x := range vec(p, w) {
					sum[i] += x
				}
			}
			return sum
		}
		check := func(what string, p part, req message, a *agg) {
			t.Helper()
			resp := pullResp(req, a)
			got, err := wire.Floats(nil, resp.Header, resp.Payload)
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want(p)) {
				fail("%s of %v = %v (%v), want %v", what, p, got, err, want(p))
			}
		}

		// Each worker pushes then pulls every part, iteration by iteration,
		// the keys of each in its own random order.
		todo := make([][]part, workers)
		for w := range todo {
			for i := 0; i < iters; i++ {
				row := make([]part, keys)
				for k := range row {
					row[k] = part{fmt.Sprintf("key%d", k), uint32(i), 1 + k}
				}
				rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
				todo[w] = append(todo[w], row...)
			}
		}
		pushedNext := make([]bool, workers) // the head of todo[w] is pushed, its pull next
		seqs := make([]uint64, workers)
		nextSeq := func(w int) uint64 { seqs[w]++; return uint64(w+1)<<32 | seqs[w] }
		served := map[part]int{}   // pulls counted per part: reclaimed at workers
		top := map[string]uint32{} // each key's last reclaimed iteration
		var reclaimed []part       // in reclaim order
		var pushes []message       // acknowledged pushes, for replay
		var pulls []parked         // served pulls, retried until the key's next push
		var waiting []parked
		var hits, lost uint64

		serve := func(pr parked, a *agg) {
			t.Helper()
			srv.countPullServed(pr.req, a)
			if served[pr.p]++; served[pr.p] == workers {
				top[pr.p.key] = max(top[pr.p.key], pr.p.iter)
				reclaimed = append(reclaimed, pr.p)
			}
			pulls = append(pulls, pr)
		}
		push := func(m message) {
			t.Helper()
			resp, wake, result := srv.processPush(m, new(pushScratch))
			if Op(resp.Op) != OpPush {
				fail("push %s#%d seq %#x rejected: %s", m.Key, m.Iter, m.Seq, resp.Payload)
			}
			// Answer the woken pulls as wake would, each exactly one of the
			// pulls parked on m's aggregate.
			for _, pp := range wake {
				i := slices.IndexFunc(waiting, func(pw parked) bool { return pw.req.Header == pp.h })
				if i < 0 || waiting[i].p.key != m.Key || waiting[i].p.iter != m.Iter {
					fail("push %s#%d woke %+v, not a pull parked on it", m.Key, m.Iter, pp.h)
				}
				pw := waiting[i]
				check("parked pull", pw.p, pw.req, result)
				serve(pw, result)
				waiting = slices.Delete(waiting, i, i+1)
			}
			if result != nil && slices.ContainsFunc(waiting, func(pw parked) bool { return pw.p.key == m.Key && pw.p.iter == m.Iter }) {
				fail("push %s#%d completed its aggregate and left a pull parked on it", m.Key, m.Iter)
			}
		}
		// blocked reports whether w's next step is a push of a key whose
		// previous iteration's pull has not returned.
		blocked := func(w int) bool {
			return !pushedNext[w] && slices.ContainsFunc(waiting, func(pw parked) bool {
				return pw.w == w && pw.p.key == todo[w][0].key
			})
		}
		for {
			var live []int
			left := false
			for w := range todo {
				if len(todo[w]) > 0 {
					left = true
					if !blocked(w) {
						live = append(live, w)
					}
				}
			}
			if !left {
				break
			}
			if len(live) == 0 {
				fail("every worker with work left waits on a parked pull")
			}
			w := live[rng.Intn(len(live))]
			p := todo[w][0]
			if !pushedNext[w] {
				// From now on w's pull of the key's previous iteration is
				// never retried.
				pulls = slices.DeleteFunc(pulls, func(pr parked) bool { return pr.w == w && pr.p.key == p.key })
				m := newMessage(OpPush, p.key, p.iter, nextSeq(w), f32(vec(p, w)...))
				push(m)
				pushes = append(pushes, m)
				pushedNext[w] = true
			} else {
				req := newMessage(OpPull, p.key, p.iter, nextSeq(w), nil)
				a, isParked, errResp := srv.resolvePull(req, nil)
				switch {
				case errResp != nil:
					fail("pull of %v rejected: %s", p, errResp.Payload)
				case isParked:
					waiting = append(waiting, parked{req, p, w})
				default:
					check("pull", p, req, a)
					serve(parked{req, p, w}, a)
				}
				todo[w], pushedNext[w] = todo[w][1:], false
			}
			// Inject a replay between steps, now and then.
			switch r := rng.Intn(8); {
			case r < 2 && len(pushes) > 0:
				m := pushes[rng.Intn(len(pushes))]
				if r == 1 { // a core-level retry: same worker, fresh Seq
					m.Seq = nextSeq(int(m.Seq>>32) - 1)
				}
				push(m)
				hits++
			case r == 2 && len(pulls) > 0:
				pr := pulls[rng.Intn(len(pulls))]
				req := pr.req
				if rng.Intn(2) == 0 {
					req.Seq = nextSeq(pr.w)
				}
				a, isParked, errResp := srv.resolvePull(req, nil)
				if isParked || errResp != nil {
					fail("retried pull of %v not answered (parked %v, err %v)", pr.p, isParked, errResp)
				}
				check("retried pull", pr.p, req, a)
				if served[pr.p] < workers {
					hits++ // a live entry already counted this worker
				}
				srv.countPullServed(req, a)
			case r == 3 && len(reclaimed) > 0:
				p := reclaimed[rng.Intn(len(reclaimed))]
				if p.iter >= top[p.key] {
					break // still its key's last reclaimed iteration
				}
				req := newMessage(OpPull, p.key, p.iter, nextSeq(rng.Intn(workers)), nil)
				a, isParked, errResp := srv.resolvePull(req, nil)
				if isParked || a != nil || errResp == nil || string(errResp.Payload) != errAggregateReclaimed {
					fail("pull of %v after %s#%d was reclaimed: parked %v, answered %v, err %v",
						p, p.key, top[p.key], isParked, a != nil, errResp)
				}
				lost++
			}
		}
		if len(waiting) != 0 {
			fail("%d pulls still parked at quiescence", len(waiting))
		}
		snap := reg.Snapshot()
		if got := snap.Counters["netps_server_dedup_hits_total"]; got != hits {
			fail("dedup hits = %d, want the %d replays injected", got, hits)
		}
		if got := snap.Counters["netps_server_lost_pulls_total"]; got != lost {
			fail("lost pulls = %d, want the %d older pulls injected", got, lost)
		}
		if n := srv.Outstanding(); n != 0 {
			fail("Outstanding() = %d at quiescence", n)
		}
		if st := stateOf(srv); st.retained != keys {
			fail("%d aggregates retained at quiescence, want one per key (%d)", st.retained, keys)
		}
		srv.Close()
	}
}
