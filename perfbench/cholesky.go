package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
)

// The cholesky workload: a tiled Cholesky factorisation of a seeded SPD
// matrix, one task per tile kernel, submitted through Runtime.Submit with
// In/InOut dependences on int tile keys — the paper's canonical OmpSs DAG.
// At 16×16 tiles a kernel runs for microseconds, so dependence tracking,
// the queue-bound semaphore and successor release weigh on the result.
const (
	cholTiles      = 32 // tiles per matrix side
	cholTileSize   = 16 // elements per tile side
	cholQueueBound = 256
	cholWarmup     = 3 // factorisations before timing
)

// Tile kernels, in the order a right-looking factorisation issues them.
const (
	kPotrf = iota
	kTrsm
	kSyrk
	kGemm
)

var kernelNames = [...]string{"potrf", "trsm", "syrk", "gemm"}

// tiled is a symmetric matrix stored as its lower triangle of bs×bs
// row-major tiles; t[i*nt+j] is tile (i, j) for j ≤ i and nil above the
// diagonal.
type tiled struct {
	nt, bs int
	t      [][]float64
}

func newTiled(nt, bs int) *tiled {
	m := &tiled{nt: nt, bs: bs, t: make([][]float64, nt*nt)}
	for i := 0; i < nt; i++ {
		for j := 0; j <= i; j++ {
			m.t[i*nt+j] = make([]float64, bs*bs)
		}
	}
	return m
}

// at is element (r, c) of the lower triangle, r ≥ c.
func (m *tiled) at(r, c int) *float64 {
	return &m.t[(r/m.bs)*m.nt+c/m.bs][(r%m.bs)*m.bs+c%m.bs]
}

func (m *tiled) copyFrom(src *tiled) {
	for i, t := range src.t {
		copy(m.t[i], t)
	}
}

// sameBits reports whether two matrices are bit-for-bit identical.
func (m *tiled) sameBits(o *tiled) bool {
	for i, t := range m.t {
		for k, v := range t {
			if math.Float64bits(v) != math.Float64bits(o.t[i][k]) {
				return false
			}
		}
	}
	return true
}

// genSPD makes a seeded symmetric, strictly diagonally dominant matrix
// with a positive diagonal, hence SPD, in O(n²).
func genSPD(seed int64, nt, bs int) *tiled {
	rng := rand.New(rand.NewSource(seed))
	m := newTiled(nt, bs)
	n := nt * bs
	for r := 0; r < n; r++ {
		for c := 0; c < r; c++ {
			*m.at(r, c) = rng.Float64()*2 - 1
		}
		*m.at(r, r) = float64(n) + rng.Float64()
	}
	return m
}

// potrf factors a diagonal tile in place into its lower Cholesky factor
// and zeroes the strict upper triangle.
func potrf(a []float64, n int) error {
	for j := 0; j < n; j++ {
		s := a[j*n+j]
		for k := 0; k < j; k++ {
			s -= a[j*n+k] * a[j*n+k]
		}
		if !(s > 0) {
			return errors.New("potrf: matrix is not positive definite")
		}
		d := math.Sqrt(s)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s / d
		}
		for i := 0; i < j; i++ {
			a[i*n+j] = 0
		}
	}
	return nil
}

// trsm overwrites b with b·L⁻ᵀ for the lower-triangular tile l.
func trsm(l, b []float64, n int) {
	for r := 0; r < n; r++ {
		row := b[r*n : r*n+n]
		for c := 0; c < n; c++ {
			lc := l[c*n : c*n+c]
			s := row[c]
			for k, v := range lc {
				s -= row[k] * v
			}
			row[c] = s / l[c*n+c]
		}
	}
}

// syrk updates the lower triangle of the diagonal tile c with c − a·aᵀ.
func syrk(a, c []float64, n int) {
	for r := 0; r < n; r++ {
		ar := a[r*n : r*n+n]
		for q := 0; q <= r; q++ {
			aq := a[q*n : q*n+n]
			s := 0.0
			for k, v := range ar {
				s += v * aq[k]
			}
			c[r*n+q] -= s
		}
	}
}

// gemm updates c with c − a·bᵀ.
func gemm(a, b, c []float64, n int) {
	for r := 0; r < n; r++ {
		ar := a[r*n : r*n+n]
		cr := c[r*n : r*n+n]
		for q := range cr {
			bq := b[q*n : q*n+n]
			s := 0.0
			for k, v := range ar {
				s += v * bq[k]
			}
			cr[q] -= s
		}
	}
}

// cholTask is one tile kernel of the factorisation DAG.
type cholTask struct {
	kind    int
	k, i, j int
	deps    []runtime.Dep
	cost    float64
	// preds are the indices of the tasks whose completion releases this
	// one, derived from the dependences (see depTracker).
	preds []int32
}

// run executes the kernel on m.
func (t *cholTask) run(m *tiled) error {
	nt, bs := m.nt, m.bs
	switch t.kind {
	case kPotrf:
		return potrf(m.t[t.k*nt+t.k], bs)
	case kTrsm:
		trsm(m.t[t.k*nt+t.k], m.t[t.i*nt+t.k], bs)
	case kSyrk:
		syrk(m.t[t.i*nt+t.k], m.t[t.i*nt+t.i], bs)
	default:
		gemm(m.t[t.i*nt+t.k], m.t[t.j*nt+t.k], m.t[t.i*nt+t.j], bs)
	}
	return nil
}

// cholTasks lists the right-looking factorisation's tasks in program
// order. Every tile's InOut chain serialises its updates in k order, so
// any valid execution order gives the serial result bit for bit.
func cholTasks(nt, bs int) []cholTask {
	var ts []cholTask
	key := func(i, j int) int { return i*nt + j }
	b3 := float64(bs * bs * bs)
	add := func(kind, k, i, j int, cost float64, deps ...runtime.Dep) {
		ts = append(ts, cholTask{kind: kind, k: k, i: i, j: j, deps: deps, cost: cost})
	}
	for k := 0; k < nt; k++ {
		add(kPotrf, k, k, k, b3/3, runtime.InOut(key(k, k)))
		for i := k + 1; i < nt; i++ {
			add(kTrsm, k, i, k, b3, runtime.In(key(k, k)), runtime.InOut(key(i, k)))
		}
		for i := k + 1; i < nt; i++ {
			add(kSyrk, k, i, i, b3, runtime.In(key(i, k)), runtime.InOut(key(i, i)))
			for j := k + 1; j < i; j++ {
				add(kGemm, k, i, j, 2*b3, runtime.In(key(i, k)), runtime.In(key(j, k)), runtime.InOut(key(i, j)))
			}
		}
	}
	var dt depTracker
	for i := range ts {
		ts[i].preds = dt.add(int32(i), ts[i].deps)
	}
	return ts
}

// depTracker derives each task's predecessors from its dependences by the
// OmpSs rules: a read waits for the last writer of the key, a write waits
// for the last writer and every reader since.
type depTracker struct {
	lastWriter map[any]int32
	readers    map[any][]int32
}

func (d *depTracker) add(task int32, deps []runtime.Dep) []int32 {
	if d.lastWriter == nil {
		d.lastWriter = map[any]int32{}
		d.readers = map[any][]int32{}
	}
	var preds []int32
	addPred := func(p int32) {
		for _, q := range preds {
			if q == p {
				return
			}
		}
		preds = append(preds, p)
	}
	for _, dep := range deps {
		if w, ok := d.lastWriter[dep.Key]; ok {
			addPred(w)
		}
		if dep.Mode == runtime.ModeIn {
			d.readers[dep.Key] = append(d.readers[dep.Key], task)
			continue
		}
		for _, r := range d.readers[dep.Key] {
			addPred(r)
		}
		d.readers[dep.Key] = d.readers[dep.Key][:0]
		d.lastWriter[dep.Key] = task
	}
	return preds
}

// factorSerial runs the tasks in program order on one goroutine.
func factorSerial(m *tiled, tasks []cholTask) error {
	for i := range tasks {
		if err := tasks[i].run(m); err != nil {
			return err
		}
	}
	return nil
}

// residual is ‖A − L·Lᵀ‖_F / ‖A‖_F over the lower triangle.
func residual(a, l *tiled) float64 {
	n := a.nt * a.bs
	var num, den float64
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			s := 0.0
			for k := 0; k <= c; k++ {
				s += *l.at(r, k) * *l.at(c, k)
			}
			d := *a.at(r, c) - s
			num += d * d
			den += *a.at(r, c) * *a.at(r, c)
		}
	}
	return math.Sqrt(num / den)
}

// cholBench is one set-up cholesky instance.
type cholBench struct {
	g       *gate
	a       *tiled // the input
	ref     *tiled // the serial factor
	work    *tiled // factorised in place by every run
	tasks   []cholTask
	fns     []func() // untraced bodies
	tfns    []func() // traced bodies: stamp, then run
	rt      *runtime.Runtime
	workers int
	serial  dist // serial factorisation times, ms
	kernErr atomic.Int64

	clk clock
	// Per-factorisation stamps of the traced run, reused: submit call
	// start/end and body start/end per task, plus the Wait call.
	sub0, sub1, body0, body1 []int64
	wait0, wait1             int64
}

func setupCholesky(o options, g *gate) (instance, error) {
	c := &cholBench{g: g, a: genSPD(o.seed, cholTiles, cholTileSize), clk: newClock()}
	c.tasks = cholTasks(cholTiles, cholTileSize)
	c.ref = newTiled(cholTiles, cholTileSize)
	c.work = newTiled(cholTiles, cholTileSize)
	c.ref.copyFrom(c.a)
	t0 := time.Now()
	if err := factorSerial(c.ref, c.tasks); err != nil {
		return nil, err
	}
	c.serial.add(float64(time.Since(t0)) / 1e6)
	n := len(c.tasks)
	c.sub0, c.sub1 = make([]int64, n), make([]int64, n)
	c.body0, c.body1 = make([]int64, n), make([]int64, n)
	c.fns, c.tfns = make([]func(), n), make([]func(), n)
	for i := range c.tasks {
		t := &c.tasks[i]
		c.fns[i] = func() {
			if err := t.run(c.work); err != nil {
				c.kernErr.Add(1)
			}
		}
		fn := c.fns[i]
		c.tfns[i] = func() {
			c.body0[i] = c.clk.now()
			fn()
			c.body1[i] = c.clk.now()
		}
	}
	c.workers = runtimeWorkers()
	c.rt = runtime.New(runtime.WithWorkers(c.workers), runtime.WithQueueBound(cholQueueBound))
	for i := 0; i < cholWarmup; i++ {
		c.factor(c.fns, false)
	}
	return c, nil
}

// factor runs one factorisation on the pool and returns its makespan,
// from the first Submit to the return of Wait. With stamp set it also
// times each Submit call, samples the backlog before it, and returns how
// many submits found the queue bound reached.
func (c *cholBench) factor(fns []func(), stamp bool) (makespan time.Duration, blocked int) {
	c.work.copyFrom(c.a)
	failed := int64(0)
	t0 := time.Now()
	for i := range c.tasks {
		t := &c.tasks[i]
		if stamp {
			if c.rt.Backlog() >= cholQueueBound {
				blocked++
			}
			c.sub0[i] = c.clk.now()
		}
		if _, err := c.rt.Submit(kernelNames[t.kind], t.cost, fns[i], t.deps...); err != nil {
			failed++
		}
		if stamp {
			c.sub1[i] = c.clk.now()
		}
	}
	if stamp {
		c.wait0 = c.clk.now()
	}
	c.rt.Wait()
	makespan = time.Since(t0)
	if stamp {
		c.wait1 = c.clk.now()
	}
	if k := c.kernErr.Swap(0); k > 0 {
		c.g.fail("cholesky: %d kernels failed", k)
		failed += k
	}
	if !c.work.sameBits(c.ref) {
		c.g.fail("cholesky: parallel factor differs from the serial factor")
		failed = int64(len(c.tasks))
	}
	c.g.count(int64(len(c.tasks)), failed)
	return makespan, blocked
}

func (c *cholBench) measure(d time.Duration, rep *report) {
	var ms dist
	var st0, st1 runtime.Stats
	c.rt.StatsInto(&st0)
	gs := readGoStats()
	cpu0 := cpuTime()
	heap := startHeapSampler()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		m, _ := c.factor(c.fns, false)
		ms.add(float64(m) / 1e6)
	}
	heap.stop(rep)
	c.rt.StatsInto(&st1)
	tasks := float64(ms.n() * len(c.tasks))
	reportCPU(rep, cpu0, tasks)
	reportGo(rep, gs, tasks)
	// The benchmark's own single-threaded run of the same bodies, after
	// the timed loop; each must reproduce the reference bit for bit.
	for i := 0; i < 3; i++ {
		c.work.copyFrom(c.a)
		t0 := time.Now()
		if err := factorSerial(c.work, c.tasks); err != nil || !c.work.sameBits(c.ref) {
			c.g.fail("cholesky: serial factorisation is not reproducible")
		}
		c.serial.add(float64(time.Since(t0)) / 1e6)
	}
	rep.set("makespan_ms.p50", ms.median(), "ms")
	rep.note("makespan_ms.p50", fmt.Sprintf("%d factorisations of %d tasks", ms.n(), len(c.tasks)))
	v, bp := ms.tail()
	rep.setTail("makespan_ms.tail", v, bp, ms.n(), "ms")
	rep.set("tasks_per_s", tasks/(ms.sum()/1e3), "1/s")
	rep.set("runtime.serial_ms", c.serial.median(), "ms")
	rep.set("runtime.speedup_vs_serial", c.serial.median()/ms.median(), "x")
	reportFaults(rep, &st0, &st1)
	// The factor must also be a factor: the bit-identity gate compares
	// against the serial run, and this checks the serial run itself.
	if r := residual(c.a, c.ref); !(r < 1e-12) {
		c.g.fail("cholesky: residual ‖A−LLᵀ‖/‖A‖ = %g", r)
	} else {
		rep.set("residual", r, "frac")
	}
}

func (c *cholBench) traced(d time.Duration, rep *report) {
	u := newUnitTrace(c.rt, c.clk, c.workers)
	blocked := 0
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		m, b := c.factor(c.tfns, true)
		blocked += b
		for i := range c.tasks {
			ready := c.sub1[i]
			for _, p := range c.tasks[i].preds {
				ready = max(ready, c.body1[p])
			}
			u.task(float64(c.sub1[i]-c.sub0[i]), ready, c.body0[i], c.body1[i])
		}
		u.unit(m, len(c.tasks), c.sub0[0], c.wait0, c.wait1)
	}
	u.report(rep, "factorisations")
	rep.set("runtime.submit_blocked_frac", float64(blocked)/float64(max(u.tasks, 1)), "frac")
}

// setHist reports a histogram's median and tail as name.p50 / name.tail.
func setHist(rep *report, name string, h *hist, unit string) {
	rep.set(name+".p50", h.pct(5000), unit)
	v, bp := h.tail()
	rep.setTail(name+".tail", v, bp, h.total, unit)
}

// reportFaults reports the fault counters, all of which must stay 0 on
// these workloads (no body fails, retries or is cancelled).
func reportFaults(rep *report, st0, st1 *runtime.Stats) {
	rep.set("runtime.skipped", float64(st1.Skipped-st0.Skipped), "count")
	rep.set("runtime.retries", float64(st1.Retries-st0.Retries), "count")
	rep.set("runtime.panics", float64(st1.Panics-st0.Panics), "count")
}

func (c *cholBench) writeSpans(path string) error {
	// The last traced factorisation, one span per layer boundary.
	return writeTSV(path, "task\tkernel\tspan\tstart_ns\tend_ns", func(w *bufio.Writer) {
		for i := range c.tasks {
			r := c.sub1[i]
			for _, p := range c.tasks[i].preds {
				r = max(r, c.body1[p])
			}
			k := kernelNames[c.tasks[i].kind]
			fmt.Fprintf(w, "%d\t%s\tsubmit\t%d\t%d\n", i, k, c.sub0[i], c.sub1[i])
			fmt.Fprintf(w, "%d\t%s\tready_wait\t%d\t%d\n", i, k, r, max(r, c.body0[i]))
			fmt.Fprintf(w, "%d\t%s\tbody\t%d\t%d\n", i, k, c.body0[i], c.body1[i])
		}
		fmt.Fprintf(w, "-\t-\twait\t%d\t%d\n", c.wait0, c.wait1)
	})
}

func (c *cholBench) close() { c.rt.Shutdown() }
