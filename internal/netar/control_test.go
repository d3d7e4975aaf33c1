package netar

import (
	"strings"
	"testing"
	"time"
)

// controlSink records the control frames a peer's handler receives.
type controlSink struct {
	got  chan Control
	lost chan error
}

func newControlSink(p *Peer) *controlSink {
	s := &controlSink{got: make(chan Control, 16), lost: make(chan error, 1)}
	p.SetControl(func(c Control, err error) {
		if err != nil {
			select {
			case s.lost <- err: // the first end is the one tests read
			default:
			}
			return
		}
		s.got <- c
	})
	return s
}

func (s *controlSink) next(t *testing.T) Control {
	t.Helper()
	select {
	case c := <-s.got:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no control frame within 5 s")
	}
	return Control{}
}

// TestControlRoundTrip: control frames reach the successor's handler in
// the order sent, every field intact at its widest, among data segments
// on the same connection.
func TestControlRoundTrip(t *testing.T) {
	peers := buildRing(t, 2)
	sink := newControlSink(peers[1])
	want := []Control{
		{Op: OpReady, Iter: 7, Task: 3},
		{Op: OpAdmit, Iter: 1<<32 - 1, Task: 1<<16 - 1, Part: 1<<32 - 2, Parts: 1<<32 - 1, Unit: 1<<32 - 1},
		{Op: OpAdmit, Iter: 8, Task: 0, Part: 0, Parts: 1},
	}
	for i, c := range want {
		if err := peers[0].SendControl(c); err != nil {
			t.Fatal(err)
		}
		if i == 0 { // a collective's segments between two control frames
			runAll(t, peers, "k", 1, [][]float32{{1, 2}, {3, 4}})
		}
	}
	for _, c := range want {
		if got := sink.next(t); got != c {
			t.Fatalf("received %+v, want %+v", got, c)
		}
	}
}

// TestControlFramesAllocateNothing is the control path's allocation gate:
// a readiness or admission frame carries no key and no payload, so
// neither writing it nor reading it and handing it to the handler
// allocates, on either side.
func TestControlFramesAllocateNothing(t *testing.T) {
	peers := buildRing(t, 2)
	sink := newControlSink(peers[1])
	ready := Control{Op: OpReady, Iter: 3, Task: 2}
	admit := Control{Op: OpAdmit, Iter: 3, Task: 2, Part: 1, Parts: 4, Unit: 256 << 10}
	frames := func() {
		for _, c := range []Control{ready, admit} {
			if err := peers[0].SendControl(c); err != nil {
				t.Fatal(err)
			}
			<-sink.got // no timer: time.After would be the one allocation
		}
	}
	frames() // warm the connection's header buffers
	if allocs := testing.AllocsPerRun(200, frames) / 2; allocs != 0 {
		t.Fatalf("a control frame allocates %v times, want 0", allocs)
	}
}

// TestControlNeedsHandler: a control frame reaching a peer with no handler
// is a protocol error — the receiver reports it and drops the connection,
// so the sender's next write fails — and a handler learns of a lost
// predecessor as an error.
func TestControlNeedsHandler(t *testing.T) {
	peers := buildRing(t, 2)
	if err := peers[0].SendControl(Control{Op: OpReady}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for peers[0].SendControl(Control{Op: OpReady}) == nil {
		if time.Now().After(deadline) {
			t.Fatal("a peer without a control handler kept its predecessor's connection")
		}
		time.Sleep(time.Millisecond)
	}

	peers = buildRing(t, 2)
	sink := newControlSink(peers[1])
	peers[0].Close()
	select {
	case err := <-sink.lost:
		if !strings.Contains(err.Error(), "lost its predecessor") {
			t.Fatalf("lost link reported as %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler never heard its predecessor was gone")
	}
}
