package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
)

// The spawn workload: dependence-free nested work. The producer submits
// root tasks with SubmitBatch in chunks; each root body spawns its
// children with SubmitCtx on its own body context, then runs its own
// grain. Grains are heavy-tailed, so the injector, the deques, the
// worker-local submit buffers, stealing and parking decide the makespan,
// while the dependence tracker and the queue bound are bypassed.
const (
	spawnRoots    = 256
	spawnChildren = 15
	spawnFan      = 1 + spawnChildren // tasks per root, the root first
	spawnChunk    = 64                // roots per SubmitBatch call
	spawnWarmup   = 3                 // waves before timing
	// Grains are Pareto(α = 1.5) spin iterations with this minimum,
	// capped at spawnGrainCap × the minimum, then scaled so a wave's
	// grains add up to spawnGrainMean per task — the capped distribution's
	// mean — whatever the seed: seeds change where the long grains fall,
	// not how much work a wave holds.
	spawnGrainMin  = 1000
	spawnGrainCap  = 100
	spawnGrainMean = 2700
)

// spin is the benchmark's unit of CPU work: n iterations of a loop with a
// carried dependence the compiler cannot remove, returning its state.
func spin(n int64) uint64 {
	var x uint64
	for i := int64(0); i < n; i++ {
		x += uint64(i) ^ (x >> 3)
	}
	return x
}

// spawnGrains draws every task's grain in spin iterations; task r·16+c is
// child c of root r (c = 0: the root itself).
func spawnGrains(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, spawnRoots*spawnFan)
	sum := 0.0
	for i := range xs {
		xs[i] = math.Min(spawnGrainMin*math.Pow(1-rng.Float64(), -1/1.5), spawnGrainMin*spawnGrainCap)
		sum += xs[i]
	}
	g := make([]int64, len(xs))
	for i, x := range xs {
		g[i] = int64(x * spawnGrainMean * float64(len(xs)) / sum)
	}
	return g
}

// spawnBench is one set-up spawn instance.
type spawnBench struct {
	g        *gate
	grains   []int64
	checksum uint64 // the serial run's sum of task results
	results  []uint64
	runs     []atomic.Int32 // executions per task, checked after each wave
	rt       *runtime.Runtime
	workers  int
	specs    []runtime.TaskSpec // the roots, untraced and traced
	tspecs   []runtime.TaskSpec
	bodies   []runtime.Body // children, untraced and traced
	tbodies  []runtime.Body
	subErr   atomic.Int64
	serial   dist

	clk                      clock
	sub0, sub1, body0, body1 []int64 // per-task stamps of the traced wave
	wait0, wait1             int64
}

func setupSpawn(o options, g *gate) (instance, error) {
	s := &spawnBench{g: g, grains: spawnGrains(o.seed), clk: newClock()}
	n := len(s.grains)
	s.results = make([]uint64, n)
	s.runs = make([]atomic.Int32, n)
	s.checksum = s.serialWave()
	s.sub0, s.sub1 = make([]int64, n), make([]int64, n)
	s.body0, s.body1 = make([]int64, n), make([]int64, n)
	s.bodies, s.tbodies = make([]runtime.Body, n), make([]runtime.Body, n)
	for i := range s.grains {
		if i%spawnFan == 0 {
			continue
		}
		s.bodies[i] = func(context.Context) error {
			s.exec(i)
			return nil
		}
		s.tbodies[i] = func(context.Context) error {
			s.body0[i] = s.clk.now()
			s.exec(i)
			s.body1[i] = s.clk.now()
			return nil
		}
	}
	for r := 0; r < spawnRoots; r++ {
		i := r * spawnFan
		s.specs = append(s.specs, runtime.TaskSpec{Name: "root", Cost: float64(s.grains[i]),
			Body: func(ctx context.Context) error {
				for c := i + 1; c < i+spawnFan; c++ {
					if _, err := s.rt.SubmitCtx(ctx, "child", float64(s.grains[c]), s.bodies[c]); err != nil {
						s.subErr.Add(1)
					}
				}
				s.exec(i)
				return nil
			}})
		s.tspecs = append(s.tspecs, runtime.TaskSpec{Name: "root", Cost: float64(s.grains[i]),
			Body: func(ctx context.Context) error {
				s.body0[i] = s.clk.now()
				for c := i + 1; c < i+spawnFan; c++ {
					s.sub0[c] = s.clk.now()
					if _, err := s.rt.SubmitCtx(ctx, "child", float64(s.grains[c]), s.tbodies[c]); err != nil {
						s.subErr.Add(1)
					}
					s.sub1[c] = s.clk.now()
				}
				s.exec(i)
				s.body1[i] = s.clk.now()
				return nil
			}})
	}
	s.workers = runtimeWorkers()
	s.rt = runtime.New(runtime.WithWorkers(s.workers))
	for i := 0; i < spawnWarmup; i++ {
		s.wave(s.specs, false)
	}
	return s, nil
}

// exec runs task i's grain and records that it ran.
func (s *spawnBench) exec(i int) {
	s.results[i] = spin(s.grains[i])
	s.runs[i].Add(1)
}

// serialWave runs every task body in a plain loop and returns the checksum.
func (s *spawnBench) serialWave() uint64 {
	sum := uint64(0)
	for _, g := range s.grains {
		sum += spin(g)
	}
	return sum
}

// wave runs one wave on the pool and returns its makespan, from the first
// SubmitBatch to the return of Wait, after checking that every task ran
// exactly once and the results sum to the serial checksum.
func (s *spawnBench) wave(specs []runtime.TaskSpec, stamp bool) time.Duration {
	failed := int64(0)
	t0 := time.Now()
	for r := 0; r < spawnRoots; r += spawnChunk {
		if stamp {
			s.sub0[r*spawnFan] = s.clk.now()
		}
		if _, err := s.rt.SubmitBatch(specs[r : r+spawnChunk]); err != nil {
			failed += spawnChunk * spawnFan
		}
		if stamp {
			s.sub1[r*spawnFan] = s.clk.now()
		}
	}
	if stamp {
		s.wait0 = s.clk.now()
	}
	s.rt.Wait()
	makespan := time.Since(t0)
	if stamp {
		s.wait1 = s.clk.now()
	}
	failed += s.subErr.Swap(0)
	sum := uint64(0)
	for i := range s.runs {
		if n := s.runs[i].Swap(0); n != 1 {
			failed++
			s.g.fail("spawn: task %d ran %d times", i, n)
		}
		sum += s.results[i]
	}
	if sum != s.checksum {
		s.g.fail("spawn: checksum %#x, serial run gives %#x", sum, s.checksum)
		failed = int64(len(s.runs))
	}
	s.g.count(int64(len(s.runs)), min(failed, int64(len(s.runs))))
	return makespan
}

func (s *spawnBench) measure(d time.Duration, rep *report) {
	var ms dist
	var st0, st1 runtime.Stats
	s.rt.StatsInto(&st0)
	gs := readGoStats()
	cpu0 := cpuTime()
	heap := startHeapSampler()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		ms.add(float64(s.wave(s.specs, false)) / 1e6)
	}
	heap.stop(rep)
	s.rt.StatsInto(&st1)
	tasks := float64(ms.n() * len(s.runs))
	reportCPU(rep, cpu0, tasks)
	reportGo(rep, gs, tasks)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if s.serialWave() != s.checksum {
			s.g.fail("spawn: serial run is not reproducible")
		}
		s.serial.add(float64(time.Since(t0)) / 1e6)
	}
	rep.set("makespan_ms.p50", ms.median(), "ms")
	rep.note("makespan_ms.p50", fmt.Sprintf("%d waves of %d tasks", ms.n(), len(s.runs)))
	v, bp := ms.tail()
	rep.setTail("makespan_ms.tail", v, bp, ms.n(), "ms")
	rep.set("tasks_per_s", tasks/(ms.sum()/1e3), "1/s")
	rep.set("runtime.serial_ms", s.serial.median(), "ms")
	rep.set("runtime.speedup_vs_serial", s.serial.median()/ms.median(), "x")
	rep.set("runtime.steals_per_task", float64(st1.Steals-st0.Steals)/tasks, "count")
	reportFaults(rep, &st0, &st1)
}

func (s *spawnBench) traced(d time.Duration, rep *report) {
	u := newUnitTrace(s.rt, s.clk, s.workers)
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		m := s.wave(s.tspecs, true)
		// A root is ready when its SubmitBatch call returns (it may start
		// earlier: the wait is then 0), and its submit cost is its share
		// of the call. A child is ready when its SubmitCtx call returns.
		for r := 0; r < spawnRoots; r += spawnChunk {
			c0, c1 := s.sub0[r*spawnFan], s.sub1[r*spawnFan]
			for k := r; k < r+spawnChunk; k++ {
				s.sub0[k*spawnFan], s.sub1[k*spawnFan] = c0, c1
			}
		}
		for i := range s.runs {
			submit := float64(s.sub1[i] - s.sub0[i])
			if i%spawnFan == 0 {
				submit /= spawnChunk
			}
			u.task(submit, s.sub1[i], s.body0[i], s.body1[i])
		}
		u.unit(m, len(s.runs), s.sub0[0], s.wait0, s.wait1)
	}
	u.report(rep, "waves")
}

func (s *spawnBench) writeSpans(path string) error {
	// The last traced wave, one span per layer boundary.
	return writeTSV(path, "task\tkind\tspan\tstart_ns\tend_ns", func(w *bufio.Writer) {
		for i := range s.runs {
			kind := "child"
			if i%spawnFan == 0 {
				kind = "root"
			}
			fmt.Fprintf(w, "%d\t%s\tsubmit\t%d\t%d\n", i, kind, s.sub0[i], s.sub1[i])
			fmt.Fprintf(w, "%d\t%s\tready_wait\t%d\t%d\n", i, kind, s.sub1[i], max(s.sub1[i], s.body0[i]))
			fmt.Fprintf(w, "%d\t%s\tbody\t%d\t%d\n", i, kind, s.body0[i], s.body1[i])
		}
		fmt.Fprintf(w, "-\t-\twait\t%d\t%d\n", s.wait0, s.wait1)
	})
}

func (s *spawnBench) close() { s.rt.Shutdown() }
