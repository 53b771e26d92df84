// Command perfbench is the repository benchmark. It runs one seeded
// workload against the public APIs of internal/runtime and internal/serve,
// checks the outputs, and prints a report: '#' lines for people, then one
// JSON line with the metrics BENCHMARK.json names. See README.md for the
// workloads, the metrics and the layers each one covers.
//
//	go run . --workload cholesky --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow boot does not move it.
const setupReps = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is an ordered set of named metrics plus free-text notes (which
// percentile a tail is, over how many samples).
type report struct {
	order []string
	m     map[string]metric
	notes map[string]string
}

func newReport() *report {
	return &report{m: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.m[name]; !ok {
		r.order = append(r.order, name)
	}
	r.m[name] = metric{v, unit}
}

func (r *report) note(name, text string) { r.notes[name] = text }

// setTail records a tail value with the percentile it was taken at.
func (r *report) setTail(name string, v float64, bp, n int, unit string) {
	r.set(name, v, unit)
	r.note(name, fmt.Sprintf("%s of %d samples", pctName(bp), n))
}

func (r *report) get(name string) (float64, bool) {
	m, ok := r.m[name]
	return m.Value, ok
}

func (r *report) print(w *bufio.Writer, title string) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, name := range r.order {
		m := r.m[name]
		fmt.Fprintf(w, "#   %-32s %14.6g %-5s", name, m.Value, m.Unit)
		if n := r.notes[name]; n != "" {
			fmt.Fprintf(w, " (%s)", n)
		}
		fmt.Fprintln(w)
	}
}

// gate accumulates the correctness verdict of a run: how many operations
// were attempted and how many failed, were refused or were wrong, plus a
// message per gate that tripped.
type gate struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
}

func (g *gate) count(attempted, failed int64) {
	g.mu.Lock()
	g.attempted += attempted
	g.failed += failed
	g.mu.Unlock()
}

func (g *gate) fail(format string, args ...any) {
	g.mu.Lock()
	if len(g.errs) < 20 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the untraced workload for d and reports its end-to-end
	// metrics. It records no spans and no body timestamps.
	measure(d time.Duration, rep *report)
	// traced runs the workload for d with the benchmark's spans on and
	// reports the per-layer metrics derived from them.
	traced(d time.Duration, rep *report)
	// writeSpans writes the spans kept from the traced run.
	writeSpans(path string) error
	close()
}

// workload is one entry of the benchmark: how to set it up, which report
// metric backs each end-to-end metric of BENCHMARK.json, and which latency
// trace.overhead compares between the traced and the untraced phase.
type workload struct {
	setup    func(o options, g *gate) (instance, error)
	e2e      map[string]string
	traceKey string
}

var workloads = map[string]workload{
	"cholesky": {setupCholesky, map[string]string{"latency_ms.p50": "makespan_ms.p50"}, "makespan_ms.p50"},
	"spawn":    {setupSpawn, map[string]string{"latency_ms.p50": "makespan_ms.p50"}, "makespan_ms.p50"},
	// Job latency on serve-mix moves 40–50% between runs on a shared
	// 2-vCPU host; the status-read round trip is the latency that holds
	// still enough to gate (see README.md).
	"serve-mix": {setupServeMix, map[string]string{"latency_ms.p50": "read_ms.p50.heavy"}, "job_ms.p50w.heavy"},
}

// endToEnd and perLayer mirror BENCHMARK.json (a test keeps them equal):
// name and unit of every metric the JSON line carries.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"latency_ms.p50", "ms"},
	{"cpu_us_per_task", "us"},
}

var perLayer = []struct{ name, unit string }{
	{"failed_frac", "frac"},
	{"makespan_ms.tail", "ms"},
	{"tasks_per_s", "1/s"},
	{"job_ms.p50.light", "ms"},
	{"job_ms.tail.light", "ms"},
	{"job_ms.p50.heavy", "ms"},
	{"job_ms.p50w.heavy", "ms"},
	{"job_ms.tail.heavy", "ms"},
	{"submit_ms.tail.heavy", "ms"},
	{"read_ms.p50.heavy", "ms"},
	{"max_rate_jobs_s", "1/s"},
	{"slo_rate_jobs_s", "1/s"},
	{"runtime.submit_ns.p50", "ns"},
	{"runtime.submit_ns.tail", "ns"},
	{"runtime.submit_blocked_frac", "frac"},
	{"runtime.ready_wait_us.p50", "us"},
	{"runtime.ready_wait_us.tail", "us"},
	{"runtime.body_us.p50", "us"},
	{"runtime.wait_us.p50", "us"},
	{"runtime.overhead_ns_per_task", "ns"},
	{"runtime.busy_frac", "frac"},
	{"runtime.serial_ms", "ms"},
	{"runtime.speedup_vs_serial", "x"},
	{"runtime.steals_per_task", "count"},
	{"runtime.skipped", "count"},
	{"runtime.retries", "count"},
	{"runtime.panics", "count"},
	{"runtime.stats_into_ns", "ns"},
	{"runtime.allocs_per_task", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"serve.submit_rtt_ms.p50", "ms"},
	{"serve.submit_rtt_ms.tail", "ms"},
	{"serve.handler_submit_us.p50", "us"},
	{"serve.handler_submit_us.tail", "us"},
	{"serve.verdict.admit", "count"},
	{"serve.verdict.defer", "count"},
	{"serve.verdict.reject", "count"},
	{"serve.admit_frac", "frac"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.tail", "ms"},
	{"serve.run_ms.p50", "ms"},
	{"serve.complete_lag_ms.p50", "ms"},
	{"serve.tenant_queue_depth.max", "count"},
	{"serve.metrics_scrape_ms.p50", "ms"},
	{"flightrec.events_per_task", "count"},
	{"flightrec.collect_us", "us"},
	{"flightrec.violations", "count"},
	{"flightrec.gaps", "count"},
	{"loadgen.late_ms.tail", "ms"},
	{"trace.overhead", "x"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	commit   string
	spanDir  string
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: cholesky, spawn or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.commit, "commit", "unknown", "commit under test, stamped into the report")
	flag.StringVar(&o.spanDir, "span-dir", "", "directory the traced run writes its spans to (empty: keep them in memory only)")
	flag.Parse()
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want cholesky, spawn or serve-mix)\n", o.workload)
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%d commit=%s\n",
		o.workload, o.seed, o.seconds, o.trace, o.commit)
	fmt.Fprintf(out, "# host nproc=%d gomaxprocs=%d cpu=%q go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())

	g := &gate{}
	rep := newReport()
	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = wl.setup(o, g)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			return 2
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), "s")
	rep.note("setup_s", fmt.Sprintf("median of %d set-ups", setupReps))

	total := time.Duration(o.seconds) * time.Second
	var base *report
	// Collect the garbage of the set-ups, so the measured phase neither
	// pays for it nor reports it.
	runtime.GC()
	if o.trace == 0 {
		inst.measure(total, rep)
	} else {
		// Half the time untraced, as the baseline trace.overhead divides
		// by, then half traced.
		base = newReport()
		inst.measure(total/2, base)
		inst.traced(total-total/2, rep)
		if b, ok := base.get(wl.traceKey); ok && b > 0 {
			t, _ := rep.get(wl.traceKey)
			rep.set("trace.overhead", t/b, "x")
			rep.note("trace.overhead", "traced "+wl.traceKey+" over untraced")
		}
		if o.spanDir != "" {
			if err := os.MkdirAll(o.spanDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: span dir: %v\n", err)
			} else if err := inst.writeSpans(filepath.Join(o.spanDir,
				fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			}
		}
	}
	inst.close()

	failedFrac := 0.0
	if g.attempted > 0 {
		failedFrac = float64(g.failed) / float64(g.attempted)
	}
	rep.set("failed_frac", failedFrac, "frac")
	if base != nil {
		base.print(out, "untraced half (baseline of trace.overhead)")
		rep.print(out, "traced half")
	} else {
		rep.print(out, "end-to-end")
	}
	for _, e := range g.errs {
		fmt.Fprintf(out, "# GATE FAILED: %s\n", e)
	}

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(g.errs) == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		fmt.Fprintln(out, "# GATE FAILED: nothing was attempted")
	}
	if o.trace == 0 {
		for _, e := range endToEnd {
			name := e.name
			if alias, ok := wl.e2e[name]; ok {
				name = alias
			}
			v, ok := rep.get(name)
			if !ok {
				res.Correct = false
				fmt.Fprintf(out, "# GATE FAILED: no value for %s\n", e.name)
			}
			res.Metrics[e.name] = metric{v, e.unit}
		}
	} else {
		for _, e := range perLayer {
			v, ok := rep.get(e.name)
			if !ok {
				// Baseline-half metrics (allocations, GC, speed-up); a
				// metric of a layer this workload does not exercise is 0.
				v, _ = base.get(e.name)
			}
			res.Metrics[e.name] = metric{v, e.unit}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[name] = metric{0, m.Unit}
			res.Correct = false
			fmt.Fprintf(out, "# GATE FAILED: %s is not a finite number\n", name)
		}
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(out, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// cpuModel is the host's CPU model name, for the fingerprint.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapSampler tracks the peak live heap, the bytes the last garbage
// collection marked reachable, read every few milliseconds through
// runtime/metrics (a plain atomic load, unlike ReadMemStats, which stops
// the world). Live bytes, unlike heap in use, do not depend on where in
// its cycle the collector happens to be when a sample is taken.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		peak := uint64(0)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			rtmetrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop reports the peak as heap_peak_mb.
func (h *heapSampler) stop(rep *report) {
	close(h.stopc)
	rep.set("heap_peak_mb", <-h.done, "MB")
}

// goStats is a MemStats snapshot of the counters the runs difference.
type goStats struct {
	mallocs, numGC, pauseNs uint64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{m.Mallocs, uint64(m.NumGC), m.PauseTotalNs}
}

// reportGo adds the Go memory-stats deltas since before, per task where
// that applies.
func reportGo(rep *report, before goStats, tasks float64) {
	after := readGoStats()
	if tasks > 0 {
		rep.set("runtime.allocs_per_task", float64(after.mallocs-before.mallocs)/tasks, "count")
	}
	rep.set("go.gc_cycles", float64(after.numGC-before.numGC), "count")
	rep.set("go.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reportCPU adds the process CPU time per task since cpu0: every
// goroutine of the process, workers, producer and (on serve-mix) the HTTP
// client and server, divided by the tasks executed.
func reportCPU(rep *report, cpu0 time.Duration, tasks float64) {
	if tasks > 0 {
		rep.set("cpu_us_per_task", float64(cpuTime()-cpu0)/1e3/tasks, "us")
	}
}

// clock hands out nanosecond timestamps relative to an epoch, from the
// monotonic clock.
type clock struct{ epoch time.Time }

func newClock() clock { return clock{time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// since is t on the clock's time base.
func (c clock) since(t time.Time) int64 { return int64(t.Sub(c.epoch)) }

// writeTSV writes rows of spans to path, one span per line.
func writeTSV(path, header string, rows func(w *bufio.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, header)
	rows(w)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeWorkers is the pool size every workload uses: one worker per
// CPU the process may run on.
func runtimeWorkers() int { return runtime.NumCPU() }
