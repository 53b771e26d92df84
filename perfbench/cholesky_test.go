package main

import (
	"math"
	"testing"

	"repro/internal/runtime"
)

// denseCholesky is the textbook factorisation of a dense n×n matrix, the
// reference the tile kernels are checked against.
func denseCholesky(a [][]float64) [][]float64 {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		s := a[j][j]
		for k := 0; k < j; k++ {
			s -= l[j][k] * l[j][k]
		}
		l[j][j] = math.Sqrt(s)
		for i := j + 1; i < n; i++ {
			s := a[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			l[i][j] = s / l[j][j]
		}
	}
	return l
}

func TestTileKernelsMatchDenseCholesky(t *testing.T) {
	const nt, bs = 4, 5
	a := genSPD(7, nt, bs)
	n := nt * bs
	dense := make([][]float64, n)
	for r := range dense {
		dense[r] = make([]float64, n)
		for c := 0; c <= r; c++ {
			dense[r][c] = *a.at(r, c)
			dense[c][r] = *a.at(r, c)
		}
	}
	want := denseCholesky(dense)
	l := newTiled(nt, bs)
	l.copyFrom(a)
	if err := factorSerial(l, cholTasks(nt, bs)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			if got := *l.at(r, c); math.Abs(got-want[r][c]) > 1e-12*math.Abs(want[r][c])+1e-14 {
				t.Fatalf("L[%d][%d] = %v, dense gives %v", r, c, got, want[r][c])
			}
		}
	}
	if res := residual(a, l); res > 1e-14 {
		t.Fatalf("residual %g", res)
	}
}

func TestCholTaskCount(t *testing.T) {
	if n := len(cholTasks(cholTiles, cholTileSize)); n != 5984 {
		t.Fatalf("%d tasks per factorisation, want 5984", n)
	}
}

func TestPoolFactorMatchesSerialBitForBit(t *testing.T) {
	const nt, bs = 8, 4
	a := genSPD(3, nt, bs)
	tasks := cholTasks(nt, bs)
	ref := newTiled(nt, bs)
	ref.copyFrom(a)
	if err := factorSerial(ref, tasks); err != nil {
		t.Fatal(err)
	}
	rt := runtime.New(runtime.WithWorkers(4), runtime.WithQueueBound(16))
	defer rt.Shutdown()
	for round := 0; round < 20; round++ {
		work := newTiled(nt, bs)
		work.copyFrom(a)
		for i := range tasks {
			task := &tasks[i]
			if _, err := rt.Submit("k", 0, func() { _ = task.run(work) }, task.deps...); err != nil {
				t.Fatal(err)
			}
		}
		rt.Wait()
		if !work.sameBits(ref) {
			t.Fatalf("round %d: pool factor differs from the serial factor", round)
		}
	}
}

func TestDepTrackerPreds(t *testing.T) {
	var d depTracker
	// w0 writes x; r1, r2 read it; w3 writes it (waits for w0 and both
	// readers); r4 reads it (waits for w3 only).
	got := [][]int32{
		d.add(0, []runtime.Dep{runtime.Out("x")}),
		d.add(1, []runtime.Dep{runtime.In("x")}),
		d.add(2, []runtime.Dep{runtime.In("x")}),
		d.add(3, []runtime.Dep{runtime.InOut("x")}),
		d.add(4, []runtime.Dep{runtime.In("x")}),
	}
	want := [][]int32{nil, {0}, {0}, {0, 1, 2}, {3}}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("task %d preds %v, want %v", i, got[i], want[i])
		}
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("task %d preds %v, want %v", i, got[i], want[i])
			}
		}
	}
}
