// Package recycle is the one free list: records or buffers held by exactly
// one owner (an engine, a fabric, a PS shard, a client, a ring peer, a live
// worker) and never by package state, taking back a value only when nothing
// can still read it. Under test (testing.Testing) a released []float32 is
// filled with NaN and a released []byte with 0xFF, up to its capacity, so a
// read after release shows up as a wrong sum instead of a lucky pass.
package recycle

import (
	"math"
	"testing"
)

// List is a stack of recycled values of one kind. It has no lock: an owner
// shared across goroutines guards it with a lock it already holds.
type List[T any] []T

// Get takes the most recently recycled value, or the zero value (nil for a
// record or a slice); the owner resets what it takes.
func (l *List[T]) Get() (v T) {
	if n := len(*l); n > 0 {
		v, *l = (*l)[n-1], (*l)[:n-1]
	}
	return v
}

// Put recycles v, poisoned under test; nothing may read it afterwards.
func (l *List[T]) Put(v T) {
	Poison(v)
	*l = append(*l, v)
}

// Take is Get for records: a recycled record, or a new zero one.
func Take[T any](l *List[*T]) *T {
	if x := l.Get(); x != nil {
		return x
	}
	return new(T)
}

// Poison fills a []float32 with NaN or a []byte with 0xFF, up to its
// capacity, under test; anything else is left alone. An owner whose records
// hold a buffer calls it on that buffer at the record's last release.
func Poison(v any) {
	if !testing.Testing() {
		return
	}
	switch b := v.(type) {
	case []float32:
		b = b[:cap(b)]
		for i := range b {
			b[i] = float32(math.NaN())
		}
	case []byte:
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xFF
		}
	}
}
