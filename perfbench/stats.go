package main

import (
	"math"
	"sort"
	"strconv"
)

// tailLadder is the percentile ladder the tail is chosen from, in basis
// points (9900 = p99), highest first.
var tailLadder = []int{9999, 9990, 9900, 9000, 5000}

// rankOf is the 1-based nearest rank of percentile bp (basis points) in n
// sorted samples. Integer arithmetic keeps p99 of 1000 samples at rank 990
// exactly, where float products land on either side of it.
func rankOf(n, bp int) int {
	r := (bp*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPct picks the tail percentile for n samples: the highest ladder
// percentile with at least 10 samples beyond it. ok is false when even the
// median has fewer than 10 beyond it; the median is returned then.
func tailPct(n int) (bp int, ok bool) {
	for _, bp := range tailLadder {
		if n-rankOf(n, bp) >= 10 {
			return bp, true
		}
	}
	return 5000, false
}

// pctName renders basis points as a percentile label ("p99.9").
func pctName(bp int) string {
	return "p" + strconv.FormatFloat(float64(bp)/100, 'f', -1, 64)
}

// dist is an exact sample set, for the end-to-end timings whose sample
// counts stay small (one per factorisation, wave or job).
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(v float64) { d.xs = append(d.xs, v); d.sorted = false }

func (d *dist) n() int { return len(d.xs) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
}

// pct is the nearest-rank percentile bp (basis points); 0 when empty.
func (d *dist) pct(bp int) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	d.sort()
	return d.xs[rankOf(len(d.xs), bp)-1]
}

func (d *dist) median() float64 { return d.pct(5000) }

// tail is the value at the tail percentile (see tailPct) and that
// percentile.
func (d *dist) tail() (v float64, bp int) {
	bp, _ = tailPct(len(d.xs))
	return d.pct(bp), bp
}

func (d *dist) sum() float64 {
	s := 0.0
	for _, x := range d.xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	d := dist{xs: append([]float64(nil), xs...)}
	return d.median()
}

// hist is a fixed-memory log-linear histogram for per-task samples, whose
// counts run into the millions: 32 sub-buckets per power of two bound the
// relative error of a quantile to about 1.6%. Adding never allocates.
type hist struct {
	counts [histBuckets]uint64
	total  int
}

const (
	histSub     = 32
	histBuckets = 1 + 64*histSub
)

func histBucket(v float64) int {
	if !(v >= 1) { // also catches NaN
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac in [0.5, 1)
	b := 1 + (exp-1)*histSub + int((frac*2-1)*histSub)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// histValue is a bucket's midpoint.
func histValue(b int) float64 {
	if b == 0 {
		return 0
	}
	exp := (b-1)/histSub + 1
	sub := (b - 1) % histSub
	lo := math.Ldexp(1+float64(sub)/histSub, exp-1)
	hi := math.Ldexp(1+float64(sub+1)/histSub, exp-1)
	return (lo + hi) / 2
}

func (h *hist) add(v float64) {
	h.counts[histBucket(v)]++
	h.total++
}

func (h *hist) pct(bp int) float64 {
	if h.total == 0 {
		return 0
	}
	rank := rankOf(h.total, bp)
	seen := 0
	for b, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return histValue(b)
		}
	}
	return histValue(histBuckets - 1)
}

func (h *hist) tail() (v float64, bp int) {
	bp, _ = tailPct(h.total)
	return h.pct(bp), bp
}
