package wire_test

import (
	"bufio"
	"net"
	"slices"
	"testing"

	"bytescheduler/internal/netar"
	"bytescheduler/internal/netps"
	"bytescheduler/internal/wire"
)

// TestBothTransportsSpeakOneFrame reads, with nothing but wire.Read, the
// first frame a netps.Client and a netar.Peer each put on a raw socket:
// one layout under both transports, with netps leaving the ring's schedule
// fields zero.
func TestBothTransportsSpeakOneFrame(t *testing.T) {
	grad := []float32{1.5, -2, 3}

	addr, frames := firstFrame(t)
	c := netps.NewClient(addr, netps.WithClientID(7))
	defer c.Close()
	if err := c.Push("L03[1/4]", 9, grad); err != nil {
		t.Fatalf("push against a wire-only server: %v", err)
	}
	f := <-frames
	want := wire.Header{Op: uint8(netps.OpPush), Iter: 9, Seq: 7<<32 | 1, Key: "L03[1/4]"}
	if f.h != want || !slices.Equal(f.vals, grad) {
		t.Fatalf("netps frame = %+v %v, want %+v %v", f.h, f.vals, want, grad)
	}

	addr, frames = firstFrame(t)
	p, err := netar.NewPeer(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Dial(addr); err != nil {
		t.Fatal(err)
	}
	// The collective cannot finish (nobody answers); its first segment is
	// what this test reads. Rank 1 of 3 opens by sending chunk 1 at step 0,
	// then waits for a segment until Close fails it.
	done := make(chan error, 1)
	go func() {
		_, err := p.AllReduce("L03[1/4]", 9, grad)
		done <- err
	}()
	f = <-frames
	p.Close()
	if err := <-done; err == nil {
		t.Fatal("a ring of one live peer completed a collective")
	}
	want = wire.Header{Op: uint8(netar.OpData), Iter: 9, Seq: 1, Step: 0, Chunk: 1, Key: "L03[1/4]"}
	if f.h != want || !slices.Equal(f.vals, grad[1:2]) {
		t.Fatalf("netar frame = %+v %v, want %+v %v", f.h, f.vals, want, grad[1:2])
	}
}

// frame is one frame as wire.Read parsed it off the socket.
type frame struct {
	h    wire.Header
	vals []float32
}

// firstFrame listens on a loopback port and reads the first frame of the
// first connection. It acknowledges by echoing the header, which is what a
// netps push ack is (the ring peer ignores it), then closes the connection
// and the listener, so a client that retried would fail fast on the refused
// redial instead of waiting out its deadline.
func firstFrame(t *testing.T) (string, <-chan frame) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	frames := make(chan frame, 1)
	go func() {
		defer ln.Close()
		conn, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer conn.Close()
		h, payload, err := wire.Read(bufio.NewReader(conn))
		if err != nil {
			t.Errorf("wire.Read: %v", err)
		}
		vals, err := wire.Floats(nil, h, payload)
		if err != nil {
			t.Errorf("wire.Floats: %v", err)
		}
		frames <- frame{h, vals}
		wire.NewConn(conn).WriteFrame(h, nil) //nolint:errcheck // the assertion is on what was read
	}()
	return ln.Addr().String(), frames
}
