package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{19, 5000, false},
		{20, 5000, true},
		{99, 5000, true},
		{100, 9000, true},
		{999, 9000, true},
		{1000, 9900, true},
		{9999, 9900, true},
		{10000, 9990, true},
		{100000, 9999, true},
	} {
		bp, ok := tailPct(c.n)
		if bp != c.want || ok != c.ok {
			t.Errorf("tailPct(%d) = %d, %v; want %d, %v", c.n, bp, ok, c.want, c.ok)
		}
		if ok && c.n-rankOf(c.n, bp) < 10 {
			t.Errorf("n=%d: %s leaves %d samples beyond it", c.n, pctName(bp), c.n-rankOf(c.n, bp))
		}
	}
}

func TestDistTail(t *testing.T) {
	var d dist
	for i := 1000; i >= 1; i-- {
		d.add(float64(i))
	}
	v, bp := d.tail()
	if bp != 9900 || v != 990 {
		t.Fatalf("tail of 1..1000 = %v at %s, want 990 at p99", v, pctName(bp))
	}
	if m := d.median(); m != 500 {
		t.Fatalf("median of 1..1000 = %v, want 500", m)
	}
}

func TestPctName(t *testing.T) {
	for bp, want := range map[int]string{5000: "p50", 9000: "p90", 9900: "p99", 9990: "p99.9", 9999: "p99.99"} {
		if got := pctName(bp); got != want {
			t.Errorf("pctName(%d) = %q, want %q", bp, got, want)
		}
	}
}

func TestHistQuantilesWithinBucketError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	var d dist
	for i := 0; i < 100000; i++ {
		v := math.Exp(rng.Float64() * 12) // 1 .. 160k, log-uniform
		h.add(v)
		d.add(v)
	}
	for _, bp := range []int{5000, 9000, 9900, 9990} {
		got, want := h.pct(bp), d.pct(bp)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("%s: hist %v, exact %v", pctName(bp), got, want)
		}
	}
}
