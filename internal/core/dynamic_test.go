package core

import (
	"testing"

	"bytescheduler/internal/tensor"
)

func TestSetPartitionUnitAffectsFutureTasks(t *testing.T) {
	net := &fakeNet{}
	s := New(ByteScheduler(100, 0))
	a := mkTask(net, 0, 400)
	s.Enqueue(a)
	if len(a.Subs()) != 4 {
		t.Fatalf("subs = %d, want 4", len(a.Subs()))
	}
	s.SetPartitionUnit(200)
	b := mkTask(net, 1, 400)
	s.Enqueue(b)
	if len(b.Subs()) != 2 {
		t.Fatalf("after SetPartitionUnit, subs = %d, want 2", len(b.Subs()))
	}
	// Already-partitioned task keeps its 4 subs.
	if len(a.Subs()) != 4 {
		t.Fatal("existing task repartitioned")
	}
}

func TestSetCreditGrow(t *testing.T) {
	net := &fakeNet{}
	s := New(ByteScheduler(100, 100)) // stop-and-wait
	task := mkTask(net, 0, 400)
	s.Enqueue(task)
	s.NotifyReady(task)
	if len(net.started) != 1 {
		t.Fatalf("started = %d, want 1", len(net.started))
	}
	// Growing the credit must release queued subs immediately.
	s.SetCredit(300)
	if len(net.started) != 3 {
		t.Fatalf("after growth, started = %d, want 3", len(net.started))
	}
	for len(net.dones) > 0 {
		net.finishNext()
	}
	if got := s.credit; got != 300 {
		t.Fatalf("credit after drain = %d, want 300", got)
	}
}

func TestSetCreditShrink(t *testing.T) {
	net := &fakeNet{}
	s := New(ByteScheduler(100, 300))
	task := mkTask(net, 0, 500)
	s.Enqueue(task)
	s.NotifyReady(task)
	if len(net.started) != 3 {
		t.Fatalf("started = %d, want 3", len(net.started))
	}
	// Shrink below in-flight: no new admissions until enough returns.
	s.SetCredit(100)
	net.finishNext() // 200 in flight, credit -100 -> 0 available... still blocked
	if len(net.started) != 3 {
		t.Fatalf("admitted during over-commitment: %d", len(net.started))
	}
	net.finishNext() // 100 in flight
	net.finishNext() // 0 in flight; head (100) fits
	if len(net.started) != 4 {
		t.Fatalf("after drain, started = %d, want 4", len(net.started))
	}
	for len(net.dones) > 0 {
		net.finishNext()
	}
	if got := s.credit; got != 100 {
		t.Fatalf("credit after drain = %d, want 100", got)
	}
}

func TestSetCreditUnlimitedAndBack(t *testing.T) {
	net := &fakeNet{}
	s := New(ByteScheduler(100, 100))
	task := mkTask(net, 0, 500)
	s.Enqueue(task)
	s.NotifyReady(task)
	s.SetCredit(0) // unlimited: everything flows
	if len(net.started) != 5 {
		t.Fatalf("unlimited credit started %d, want 5", len(net.started))
	}
	if s.limited {
		t.Fatal("credit 0 should make the scheduler unlimited")
	}
	// Back to limited while 5x100 bytes are in flight.
	s.SetCredit(200)
	task2 := mkTask(net, 0, 100)
	s.Enqueue(task2)
	s.NotifyReady(task2)
	if len(net.started) != 5 {
		t.Fatal("admission during over-commitment")
	}
	for len(net.dones) > 0 {
		net.finishNext()
	}
	if len(net.started) != 6 {
		t.Fatalf("started = %d, want 6", len(net.started))
	}
}

func TestSetterValidation(t *testing.T) {
	s := New(FIFO())
	for name, fn := range map[string]func(){
		"negative unit":   func() { s.SetPartitionUnit(-1) },
		"negative credit": func() { s.SetCredit(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			fn()
		}()
	}
}

func TestPartitionFnPerLayer(t *testing.T) {
	net := &fakeNet{}
	policy := Policy{
		Name:        "layerwise",
		CreditBytes: 0,
		Priority:    LayerPriority,
		PartitionFn: func(tt tensor.Tensor) int64 {
			if tt.Layer == 0 {
				return 50 // fine partitions for the urgent layer
			}
			return 0 // no partitioning elsewhere
		},
	}
	s := New(policy)
	a := mkTask(net, 0, 200)
	b := mkTask(net, 1, 200)
	s.Enqueue(a)
	s.Enqueue(b)
	if len(a.Subs()) != 4 {
		t.Fatalf("layer 0 subs = %d, want 4", len(a.Subs()))
	}
	if len(b.Subs()) != 1 {
		t.Fatalf("layer 1 subs = %d, want 1", len(b.Subs()))
	}
}
