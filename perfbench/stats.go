package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"unsafe"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1,000 samples.
const minTail = 10

// quantile is one exact percentile of a sample set, with the evidence a
// reader needs to trust it.
type quantile struct {
	// Value is the nearest-rank sample: the smallest sample with at least
	// p·n samples at or below it.
	Value float64 `json:"value"`
	// N is the number of samples the percentile was taken over.
	N int `json:"n"`
	// Beyond counts the samples ranked above Value.
	Beyond int `json:"beyond"`
}

// Reportable reports whether enough samples lie beyond the percentile.
func (q quantile) Reportable() bool { return q.Beyond >= minTail }

// sample is a latency or duration sample in nanoseconds.
type sample interface{ uint32 | int64 }

// percentile returns the exact nearest-rank p-quantile (0 < p ≤ 1) of
// sorted, which must be in ascending order. An empty set yields the zero
// quantile.
func percentile[T sample](sorted []T, p float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{}
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{Value: float64(sorted[rank-1]), N: n, Beyond: n - rank}
}

// sortedUnion concatenates sample sets into one ascending slice.
func sortedUnion[T sample](sets ...[]T) []T {
	n := 0
	for _, s := range sets {
		n += len(s)
	}
	all := make([]T, 0, n)
	for _, s := range sets {
		all = append(all, s...)
	}
	slices.Sort(all)
	return all
}

// offHeap is a fixed-capacity array of pointer-free values in anonymous
// memory outside the Go heap. The benchmark keeps its latency samples and
// spans there so that they neither count toward the heap and allocation
// metrics it reports nor add garbage-collector work; pages are committed
// only as they are written.
type offHeap[T any] struct {
	mem  []byte
	Vals []T
}

func newOffHeap[T any](n int) (*offHeap[T], error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("perfbench: map %d bytes: %w", size, err)
	}
	return &offHeap[T]{mem: mem, Vals: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)[:0]}, nil
}

// push appends v, reporting false when the array is full.
func (a *offHeap[T]) push(v T) bool {
	if len(a.Vals) == cap(a.Vals) {
		return false
	}
	a.Vals = append(a.Vals, v)
	return true
}

func (a *offHeap[T]) free() {
	a.Vals = nil
	_ = syscall.Munmap(a.mem) // the mapping is private and unused from here on
}
