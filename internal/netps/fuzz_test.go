// Fuzz targets for netps's half of the wire protocol. Framing itself —
// arbitrary bytes never panic the reader, never over-allocate, and an
// accepted frame re-encodes to the same bytes — is wire.FuzzRead's
// contract. Here the contract is what netps does with frames that parsed:
// the server answers a request (ack or OpErr, never a panic, whatever
// codec id, original length or payload framing it claims), an accepted
// push is pullable and decodes to its values as its codec re-encodes them
// — and so do the next two aggregates of its key, the third encoded into
// the first one's recycled buffer — and a client connection's reader, fed any byte
// stream as a server's responses, settles each pending call exactly once.
//
// Run continuously with:
//
//	go test ./internal/netps/ -fuzz FuzzDecodeMessage -fuzztime 30s
//	go test ./internal/netps/ -fuzz FuzzDecodeBatch -fuzztime 30s
//
// CI runs a short smoke of each (make fuzz); the committed corpus under
// testdata/fuzz keeps the interesting seeds regression-tested by plain
// `go test`.
package netps

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"bytescheduler/internal/compress"
	"bytescheduler/internal/wire"
)

// frame encodes m as it goes on the wire, for seeding.
func frame(t testing.TB, m message) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeMsg(&b, m); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// codecSeeds are codec-bearing frames: fp16 (2 elements), int8 (scale + 3
// quanta), and top-k (count 1, index 0) payloads under their envelope
// codec ids.
func codecSeeds() []message {
	seed := func(op Op, codec uint8, seq uint64, orig uint32, key string, payload []byte) message {
		m := newMessage(op, key, 5, seq, payload)
		m.Codec, m.Orig = codec, orig
		return m
	}
	return []message{
		seed(OpPush, 1, 11, 8, "w0/L07[0/4]", []byte{0x3c, 0x00, 0xbc, 0x00}),
		seed(OpPush, 2, 12, 12, "w0/L07[1/4]", []byte{0x3c, 0x81, 0x02, 0x04, 0x7f, 0x81, 0x00}),
		seed(OpPull, 3, 0, 16, "w0/L07[2/4]", []byte{0, 0, 0, 1, 0, 0, 0, 0, 0x3f, 0x80, 0, 0}),
	}
}

// xiterSeeds are cross-iteration frames: with pipelining, iteration i and
// i+1 frames for the same tensor key interleave on one connection; the
// iter field is the only discriminator the server's dedup and aggregation
// see.
func xiterSeeds() []message {
	return []message{
		newMessage(OpPush, "w0/L00[0/2]", 6, 20, []byte{1, 2, 3, 4}),
		newMessage(OpPush, "w0/L00[0/2]", 7, 21, []byte{5, 6, 7, 8}),
		newMessage(OpPull, "w0/L00[1/2]", 7, 0, nil),
	}
}

// xiterBatch is a pipelined stream: iteration i and i+1 frames for the
// same key back to back, the wire shape two in-flight iterations produce.
func xiterBatch() []message {
	return []message{
		newMessage(OpPush, "w1/L02[0/2]", 6, 5, []byte{1, 2, 3, 4}),
		newMessage(OpPush, "w1/L02[0/2]", 7, 6, []byte{5, 6, 7, 8}),
		newMessage(OpPull, "w1/L02[1/2]", 6, 0, nil),
	}
}

func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame(f, newMessage(OpPush, "w0/L07[0/4]", 3, 9, []byte{1, 2, 3, 4})))
	f.Add(frame(f, newMessage(OpPull, "k", 0, 0, nil)))
	f.Add(frame(f, newMessage(OpErr, "", 0, 0, []byte("bad request"))))
	for _, m := range append(codecSeeds(), xiterSeeds()...) {
		f.Add(frame(f, m))
	}
	// A top-k push too short to hold its own count.
	short := codecSeeds()[2]
	short.Op, short.Payload = uint8(OpPush), []byte{0, 0, 1}
	f.Add(frame(f, short))
	// A ragged raw-fp32 push.
	f.Add(frame(f, newMessage(OpPush, "x", 0, 0, []byte{1, 2, 3})))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readMsg(bytes.NewReader(data))
		if err != nil {
			return // rejected by the frame reader: wire.FuzzRead's territory
		}
		srv, err := NewServer(1, func(s *Server) { s.shardCount = 1 })
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// One worker, so an accepted push completes its aggregate at once.
		resp, _, _ := srv.processPush(req, new(pushScratch))
		if resp.Seq != req.Seq || resp.Key != req.Key || resp.Iter != req.Iter {
			t.Fatalf("response %+v does not echo request %+v", resp.Header, req.Header)
		}
		switch Op(resp.Op) {
		case OpErr:
			return
		case OpPush:
		default:
			t.Fatalf("push answered with op %d", resp.Op)
		}
		first := pullPushed(t, srv, req)
		if req.Iter > math.MaxUint32-2 {
			return // a key's iterations increase: no room for two more
		}
		// Two more aggregates of the same key, pushed under the same codec
		// with other values and (for top-k) another count. The first is
		// retained until the second replaces it, so the third encodes into
		// the first one's recycled buffer.
		vals, _ := wire.Floats(nil, req.Header, req.Payload)
		next := make([]float32, len(vals)+1)
		for i, v := range vals {
			next[len(vals)-i] = -2 * v
		}
		c := pushCodec(req)
		if c.ID() == compress.CodecTopK {
			c, _ = compress.TopKCodecCount(int(binary.BigEndian.Uint32(req.Payload))%len(next) + 1)
		}
		var third []byte
		for i := uint32(1); i <= 2; i++ {
			reqI := newMessage(OpPush, req.Key, req.Iter+i, req.Seq+uint64(i), nil)
			reqI.Payload, reqI.Codec, reqI.Orig = wire.AppendFloats(nil, c, next)
			if resp, _, _ := srv.processPush(reqI, new(pushScratch)); Op(resp.Op) != OpPush {
				t.Fatalf("push %d rejected: %s", i+1, resp.Payload)
			}
			third = pullPushed(t, srv, reqI)
		}
		if cap(first) >= len(third) && &first[0] != &third[0] {
			t.Fatal("the third aggregate did not reuse the first one's free buffer")
		}
	})
}

// pushCodec is the codec the server re-encodes an accepted push's
// aggregate with: the push's own, top-k keeping the push's count.
func pushCodec(req message) compress.Codec {
	c, _ := compress.CodecByID(compress.CodecID(req.Codec))
	if c.ID() == compress.CodecTopK {
		c, _ = compress.TopKCodecCount(int(binary.BigEndian.Uint32(req.Payload)))
	}
	return c
}

// pullPushed pulls the aggregate of req, an accepted push on a one-worker
// server, checks it decodes to req's values as the push's codec re-encodes
// them, and serves the pull, reclaiming the entry. It returns the payload,
// whose buffer is free once the key's next aggregate replaces it.
func pullPushed(t *testing.T, srv *Server, req message) []byte {
	t.Helper()
	pull := newMessage(OpPull, req.Key, req.Iter, 0, nil)
	result, parked, errResp := srv.resolvePull(pull, nil)
	if parked || errResp != nil {
		t.Fatalf("accepted push not pullable (parked %v, err %v)", parked, errResp)
	}
	pulled := pullResp(pull, result)
	got, err := wire.Floats(nil, pulled.Header, pulled.Payload)
	if err != nil {
		t.Fatalf("aggregate of an accepted push does not decode: %v", err)
	}
	pushed, err := wire.Floats(nil, req.Header, req.Payload)
	if err != nil || len(got) != len(pushed) {
		t.Fatalf("pulled %d values for a push of %d (%v)", len(got), len(pushed), err)
	}
	p, codec, orig := wire.AppendFloats(nil, pushCodec(req), pushed)
	want, _ := wire.Floats(nil, wire.Header{Codec: codec, Orig: orig}, p)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("pulled value %d = %v, want %v", i, got[i], want[i])
		}
	}
	payload := result.payload // a raw aggregate's record lets go of it when served
	srv.countPullServed(pull, result)
	return payload
}

// FuzzDecodeBatch feeds arbitrary bytes to a client connection's reader
// as the stream a server sent, with a call pending for every frame the
// stream holds (and one for a frame that never comes): the reader must
// stop at the stream's end without a panic, settle every call exactly once
// (readResponses), answer each call with the first whole frame that names
// its Seq — a pull keeping its payload intact in its call's own buffer
// while later frames were read — and fail the rest.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	one := stream(f, newMessage(OpPush, "a", 1, 2, []byte{0, 0, 128, 63}))
	f.Add(one)
	two := stream(f,
		newMessage(OpPush, "w1/L00[0/2]", 0, 3, []byte{1, 2, 3, 4}),
		newMessage(OpPull, "w1/L00[1/2]", 0, 4, nil),
	)
	f.Add(two)
	f.Add(stream(f, xiterBatch()...))
	// Truncations at every interesting boundary of a valid stream.
	const fixed = 24 // the constant-size header prefix
	for _, cut := range []int{1, fixed - 1, fixed, fixed + 1, len(two) - 1} {
		f.Add(two[:cut])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The frames a reference reader finds, each answering a request
		// with its identity; an OpErr answers a push.
		var frames []message
		seen := map[uint64]bool{}
		var reqs []message
		for r := bytes.NewReader(data); ; {
			m, err := readMsg(r)
			if err != nil {
				break
			}
			frames = append(frames, m)
			if !seen[m.Seq] {
				seen[m.Seq] = true
				req := newMessage(Op(m.Op), m.Key, m.Iter, m.Seq, nil)
				if Op(m.Op) == OpErr {
					req.Op = uint8(OpPush)
				}
				reqs = append(reqs, req)
			}
		}
		missing := newMessage(OpPull, "never", 0, 1<<63, nil)
		if !seen[missing.Seq] {
			reqs = append(reqs, missing)
		}
		calls := readResponses(t, reqs, data)
		for i, k := range calls {
			j := slices.IndexFunc(frames, func(m message) bool { return m.Seq == k.req.Seq })
			if j < 0 {
				if k.err == nil || isServerError(k.err) {
					t.Fatalf("call %d: no frame answers it, yet it settled with %v", i, k.err)
				}
				continue
			}
			m := frames[j]
			switch {
			case Op(m.Op) == OpErr:
				var se *ServerError
				if !errors.As(k.err, &se) || se.Msg != string(m.Payload) {
					t.Fatalf("call %d: OpErr %q settled as %v", i, m.Payload, k.err)
				}
			case k.err != nil:
				t.Fatalf("call %d: its response settled it with %v", i, k.err)
			case Op(m.Op) == OpPull:
				if k.resp.Header != m.Header || !bytes.Equal(k.resp.Payload, m.Payload) {
					t.Fatalf("call %d: pull kept %+v with %x, want %+v with %x", i, k.resp.Header, k.resp.Payload, m.Header, m.Payload)
				}
			}
		}
	})
}
