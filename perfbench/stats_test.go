package main

import (
	"slices"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]uint32, 0, 1000)
	for i := 1000; i >= 1; i-- {
		s = append(s, uint32(i))
	}
	slices.Sort(s)
	for _, tc := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
		{0.0001, 1, 999},
	} {
		q := percentile(s, tc.p)
		if q.Value != tc.value || q.Beyond != tc.beyond || q.N != 1000 {
			t.Errorf("p%g = %+v, want value %g beyond %d n 1000", tc.p*100, q, tc.value, tc.beyond)
		}
	}
}

func TestPercentileReportable(t *testing.T) {
	s := make([]int64, 999)
	for i := range s {
		s[i] = int64(i)
	}
	if q := percentile(s, 0.99); q.Reportable() {
		t.Errorf("p99 of 999 samples has %d beyond it; want it withheld", q.Beyond)
	}
	s = append(s, 999)
	if q := percentile(s, 0.99); !q.Reportable() || q.Beyond != minTail {
		t.Errorf("p99 of 1000 samples = %+v; want reportable with %d beyond", q, minTail)
	}
	if q := percentile([]int64(nil), 0.5); q.N != 0 || q.Reportable() {
		t.Errorf("percentile of no samples = %+v, want the zero quantile", q)
	}
}

func TestPercentileTies(t *testing.T) {
	s := []uint32{5, 5, 5, 5, 9}
	if q := percentile(s, 0.5); q.Value != 5 || q.Beyond != 2 {
		t.Errorf("p50 = %+v, want 5 with 2 beyond by rank", q)
	}
}

func TestSortedUnion(t *testing.T) {
	got := sortedUnion([]uint32{3, 9}, nil, []uint32{1, 4})
	if want := []uint32{1, 3, 4, 9}; !slices.Equal(got, want) {
		t.Errorf("sortedUnion = %v, want %v", got, want)
	}
}

func TestOffHeapBounded(t *testing.T) {
	a, err := newOffHeap[uint32](3)
	if err != nil {
		t.Fatal(err)
	}
	defer a.free()
	for i := uint32(0); i < 3; i++ {
		if !a.push(i) {
			t.Fatalf("push %d refused below capacity", i)
		}
	}
	if a.push(3) {
		t.Fatal("push beyond capacity accepted")
	}
	if !slices.Equal(a.Vals, []uint32{0, 1, 2}) {
		t.Errorf("Vals = %v", a.Vals)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}
