package main

import (
	"fmt"
	"time"

	"repro/internal/runtime"
)

// unitTrace gathers the per-layer figures of a traced cholesky or spawn
// run, which repeats one unit of work (a factorisation, a wave): per task
// the submit call, the wait from ready to start, and the body; per unit
// the makespan, the Wait call, the pool's time per task not spent in
// bodies, its busy share, and the cost of one StatsInto snapshot.
type unitTrace struct {
	rt      *runtime.Runtime
	clk     clock
	workers int

	makespan, overhead, busy             dist
	submit, ready, body, wait, statsInto hist
	tasks                                int
	sumBody                              int64 // body time of the current unit
	st0, scratch                         runtime.Stats
}

func newUnitTrace(rt *runtime.Runtime, clk clock, workers int) *unitTrace {
	u := &unitTrace{rt: rt, clk: clk, workers: workers}
	rt.StatsInto(&u.st0)
	return u
}

// task adds one task: the cost of its submit call, and when it became
// ready, started and ended.
func (u *unitTrace) task(submitNS float64, ready, start, end int64) {
	u.submit.add(submitNS)
	u.ready.add(float64(max(start-ready, 0)) / 1e3)
	u.body.add(float64(end-start) / 1e3)
	u.sumBody += end - start
	u.tasks++
}

// unit closes a unit of n tasks whose first submit started at first and
// whose Wait call ran from waitStart to waitEnd.
func (u *unitTrace) unit(makespan time.Duration, n int, first, waitStart, waitEnd int64) {
	u.makespan.add(float64(makespan) / 1e6)
	u.wait.add(float64(waitEnd-waitStart) / 1e3)
	span := float64(waitEnd - first)
	u.overhead.add((float64(u.workers)*span - float64(u.sumBody)) / float64(n))
	u.busy.add(float64(u.sumBody) / (float64(u.workers) * span))
	u.sumBody = 0
	t0 := u.clk.now()
	u.rt.StatsInto(&u.scratch)
	u.statsInto.add(float64(u.clk.now() - t0))
}

func (u *unitTrace) report(rep *report, units string) {
	var st1 runtime.Stats
	u.rt.StatsInto(&st1)
	rep.set("makespan_ms.p50", u.makespan.median(), "ms")
	rep.note("makespan_ms.p50", fmt.Sprintf("%d traced %s", u.makespan.n(), units))
	setHist(rep, "runtime.submit_ns", &u.submit, "ns")
	setHist(rep, "runtime.ready_wait_us", &u.ready, "us")
	rep.set("runtime.body_us.p50", u.body.pct(5000), "us")
	rep.set("runtime.wait_us.p50", u.wait.pct(5000), "us")
	rep.set("runtime.overhead_ns_per_task", u.overhead.median(), "ns")
	rep.set("runtime.busy_frac", u.busy.median(), "frac")
	rep.set("runtime.stats_into_ns", u.statsInto.pct(5000), "ns")
	rep.set("runtime.steals_per_task", float64(st1.Steals-u.st0.Steals)/float64(max(u.tasks, 1)), "count")
	reportFaults(rep, &u.st0, &st1)
}
