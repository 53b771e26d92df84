package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/flightrec"
	"repro/internal/flightrec/verify"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// The serve-mix workload: serve.Server over loopback, booted through
// servetest in this process, with its default CATS pool and the flight
// recorder on (the shape of `raa-serve -flight`). An open-loop Poisson
// generator offers a fixed light and a fixed heavy rate of task graphs
// from four tenants, one of them greedy, with status reads beside the
// writes and periodic /metrics scrapes, then climbs a ladder of higher
// rates to find the highest one that meets the latency limit.
const (
	serveLight = 600.0  // jobs/s
	serveHeavy = 1500.0 // jobs/s
	// serveSLO is the limit on the tail job latency, due time to
	// terminal state, a rate must meet on the ladder. A shared 2-vCPU VM
	// stalls threads for milliseconds at a time (a spinning thread on an
	// idle one sees gaps of 10–15 ms), so tails of 10–30 ms come from the
	// host below the knee; past it they climb to hundreds.
	serveSLO = 50 * time.Millisecond
	// serveReadShare of the requests are status reads; the rest submit.
	serveReadShare = 0.10
	serveScrapeGap = 100 * time.Millisecond
	serveTemplates = 1024 // distinct graphs the jobs are drawn from
	serveMaxTasks  = 16
	// serveGrow is how far the mean pending-job depth of a rung's second
	// half may exceed its first half's before the backlog counts as
	// growing.
	serveGrow = 8.0
	// serveHandlerEvery is the traced run's sampling of submits that go
	// straight to Server.Handler on an in-process recorder.
	serveHandlerEvery = 20
	serveWarmup       = 500 * time.Millisecond
	// serveQuota and serveQueueCap size each tenant's token quota and
	// queue. At the defaults (256 tokens, 64 jobs, deferring from 48) a
	// host stall of 40–60 ms at the heavy rate — a shared 2-vCPU VM
	// stalls for 10–200 ms at a time — defers the greedy tenant. These absorb half a
	// second of stall, so the light and heavy phases see no refusal; past
	// the knee the ladder's growing-backlog and latency checks fire first.
	serveQuota    = 8192
	serveQueueCap = 1024
)

// serveLadder multiplies serveHeavy into the rates the capacity search
// climbs after the heavy phase, in steps of a quarter of it up to past
// the 2-vCPU knee.
var serveLadder = []float64{1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0}

var serveTenants = []struct {
	name  string
	share float64
}{{"greedy", 0.5}, {"t1", 1.0 / 6}, {"t2", 1.0 / 6}, {"t3", 1.0 / 6}}

// serveLanes are the lanes and their shares of the submissions.
var serveLanes = []struct {
	name  string
	share float64
}{{"control", 0.05}, {"data", 0.80}, {"telemetry", 0.15}}

// benchSink keeps the bench op's spin loop from being optimised away.
var benchSink atomic.Uint64

// graphTemplate is one generated task graph. Each task's op amount packs
// its spin iterations with the job and task index, so the op the
// benchmark registers can stamp body times per task in the traced run.
type graphTemplate struct {
	lane  string
	spins []int64
	deps  [][]serve.DepRequest
	preds [][]int32 // per task, indices of the tasks that release it
}

func packAmount(spin int64, job, task int) int64 { return spin<<28 | int64(job)<<4 | int64(task) }

func unpackAmount(a int64) (spin int64, job, task int) {
	return a >> 28, int(a>>4) & (1<<24 - 1), int(a & 15)
}

// appendBody appends the JSON graph request of job to b.
func (t *graphTemplate) appendBody(b []byte, job int) []byte {
	b = append(b, `{"lane":"`...)
	b = append(b, t.lane...)
	b = append(b, `","tasks":[`...)
	for i, s := range t.spins {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":"bench","amount":`...)
		b = strconv.AppendInt(b, packAmount(s, job, i), 10)
		if len(t.deps[i]) > 0 {
			b = append(b, `,"deps":[`...)
			for j, d := range t.deps[i] {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"key":"`...)
				b = append(b, d.Key...)
				b = append(b, `","mode":"`...)
				b = append(b, d.Mode...)
				b = append(b, `"}`...)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// genTemplates draws the graphs: 1–16 tasks, spin bodies of 15–25k
// iterations, and up to two dependences per task on four job-local keys.
func genTemplates(rng *rand.Rand) []graphTemplate {
	keys := []string{"a", "b", "c", "d"}
	modes := []string{"in", "in", "out", "inout", "inout"}
	ts := make([]graphTemplate, serveTemplates)
	for i := range ts {
		t := &ts[i]
		t.lane = pickLane(rng)
		n := 1 + rng.Intn(serveMaxTasks)
		var dt depTracker
		for k := 0; k < n; k++ {
			t.spins = append(t.spins, 15000+rng.Int63n(10000))
			var ds []serve.DepRequest
			var rdeps []runtime.Dep
			for _, key := range rng.Perm(len(keys))[:rng.Intn(3)] {
				d := serve.DepRequest{Key: keys[key], Mode: modes[rng.Intn(len(modes))]}
				ds = append(ds, d)
				rdeps = append(rdeps, runtime.Dep{Key: d.Key, Mode: wireMode(d.Mode)})
			}
			t.deps = append(t.deps, ds)
			t.preds = append(t.preds, dt.add(int32(k), rdeps))
		}
	}
	return ts
}

func wireMode(m string) runtime.AccessMode {
	switch m {
	case "in":
		return runtime.ModeIn
	case "out":
		return runtime.ModeOut
	default:
		return runtime.ModeInOut
	}
}

func pickLane(rng *rand.Rand) string {
	x := rng.Float64()
	for _, l := range serveLanes[:len(serveLanes)-1] {
		if x < l.share {
			return l.name
		}
		x -= l.share
	}
	return serveLanes[len(serveLanes)-1].name
}

func pickTenant(rng *rand.Rand) int {
	x := rng.Float64()
	for k, t := range serveTenants {
		if x < t.share {
			return k
		}
		x -= t.share
	}
	return len(serveTenants) - 1
}

type reqKind uint8

const (
	reqSubmit reqKind = iota
	reqRead
	reqScrape
)

// request is one scheduled request of a phase.
type request struct {
	due    time.Duration // from the phase start
	kind   reqKind
	tenant uint8
	tmpl   uint16
	job    int32 // global job index of a submit
}

// phase is one stretch of open-loop load at a fixed rate.
type phase struct {
	name string
	rate float64 // submitted jobs per second
	dur  time.Duration
	reqs []request
}

// genPhase draws a Poisson arrival schedule at rate jobs/s (plus the
// status reads riding on top) with a /metrics scrape every serveScrapeGap.
func genPhase(rng *rand.Rand, name string, rate float64, dur time.Duration, nextJob *int32) phase {
	p := phase{name: name, rate: rate, dur: dur}
	total := rate / (1 - serveReadShare)
	t := 0.0
	nextScrape := serveScrapeGap / 2
	for {
		t += rng.ExpFloat64() / total
		due := time.Duration(t * 1e9)
		if due >= dur {
			break
		}
		for nextScrape <= due {
			p.reqs = append(p.reqs, request{due: nextScrape, kind: reqScrape})
			nextScrape += serveScrapeGap
		}
		r := request{due: due, tenant: uint8(pickTenant(rng))}
		if rng.Float64() < serveReadShare {
			r.kind = reqRead
		} else {
			r.kind = reqSubmit
			r.tmpl = uint16(rng.Intn(serveTemplates))
			r.job = *nextJob
			*nextJob++
		}
		p.reqs = append(p.reqs, r)
	}
	return p
}

// serveSchedule is every input of one serve-mix run, drawn from the seed.
type serveSchedule struct {
	templates []graphTemplate
	phases    map[string]phase
	jobs      int32 // jobs across all phases
}

// serveSegments is how many segments the heavy phase is run in. Each is
// collected before the next starts, so the server's job history only has
// to hold one segment's jobs for their final state to be read.
const serveSegments = 3

// serveRung is how long each rate of the capacity search runs.
const serveRung = 1500 * time.Millisecond

func genSchedule(seed int64, seconds int) *serveSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := &serveSchedule{templates: genTemplates(rng), phases: map[string]phase{}}
	add := func(name string, rate float64, d time.Duration) {
		s.phases[name] = genPhase(rng, name, rate, d, &s.jobs)
	}
	total := time.Duration(seconds) * time.Second
	add("warmup", serveLight, serveWarmup)
	// The untraced run spends a quarter of its time at the light rate and
	// the rest at the heavy rate; a traced run does the same in half its
	// time, then traces a heavy phase of a quarter, then climbs the
	// capacity ladder untraced.
	for _, run := range []struct {
		prefix string
		d      time.Duration
	}{{"", total}, {"half.", total / 2}} {
		add(run.prefix+"light", serveLight, run.d/4)
		for i := 0; i < serveSegments; i++ {
			add(fmt.Sprintf("%sheavy%d", run.prefix, i), serveHeavy, run.d/4)
		}
	}
	add("traced", serveHeavy, total/4)
	for i, f := range serveLadder {
		add(fmt.Sprintf("rung%d", i), serveHeavy*f, serveRung)
	}
	return s
}

// serveBench is one set-up serve-mix instance.
type serveBench struct {
	g       *gate
	seconds int
	sched   *serveSchedule
	h       *servetest.Harness
	client  *http.Client
	base    string
	workers int
	lastID  atomic.Pointer[string] // newest admitted job, for status reads

	clk   clock
	stamp atomic.Bool
	// Body start/end per job·16+task, stamped by the bench op while stamp
	// is set (the traced phase only).
	body0, body1 []int64

	// The traced phase's per-request record, kept for writeSpans.
	tracedPhase *phase
	tracedRun   *phaseRun
	jobDone     []int64 // terminal time per request, traced phase
}

func setupServeMix(o options, g *gate) (instance, error) {
	s := &serveBench{g: g, seconds: o.seconds, sched: genSchedule(o.seed, o.seconds), clk: newClock()}
	s.workers = runtimeWorkers()
	// The history holds one phase's jobs until collect reads their final
	// state; light and the first heavy segment overflow it, so the
	// retained heap levels off early in the heavy phase.
	maxJobs := 0
	for _, p := range s.sched.phases {
		n := 0
		for _, q := range p.reqs {
			if q.kind == reqSubmit {
				n++
			}
		}
		maxJobs = max(maxJobs, n)
	}
	h, err := servetest.New(serve.Config{
		Workers:        s.workers,
		FlightRecorder: true,
		TenantQuota:    serveQuota,
		QueueCap:       serveQueueCap,
		JobHistory:     maxJobs + 256,
		Ops:            map[string]serve.Op{"bench": s.op},
	})
	if err != nil {
		return nil, err
	}
	s.h = h
	s.base = h.HTTP.URL
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     s.workers,
		MaxIdleConnsPerHost: s.workers,
		DisableCompression:  true,
	}}
	w := s.sched.phases["warmup"]
	if r := s.runPhase(&w, false); r.admitted == 0 {
		s.close()
		return nil, fmt.Errorf("serve-mix: warm-up admitted no job")
	}
	return s, nil
}

// op is the benchmark's task body: the builtin spin loop, plus body
// timestamps while the traced phase runs.
func (s *serveBench) op(_ context.Context, amount int64) error {
	n, job, task := unpackAmount(amount)
	i := job*serveMaxTasks + task
	stamp := s.stamp.Load() && i < len(s.body0)
	if stamp {
		s.body0[i] = s.clk.now()
	}
	benchSink.Store(spin(n))
	if stamp {
		s.body1[i] = s.clk.now()
	}
	return nil
}

// phaseRun is what one phase's requests observed, per request, in
// nanoseconds from the phase start.
type phaseRun struct {
	start     time.Time
	pick      []int64 // a sender took the request
	done      []int64 // the response was read (the 202, for a submit)
	code      []int
	id        []string
	inproc    []bool    // submitted through Server.Handler in process
	latencyMS []float64 // the server's admission-to-terminal latency
	ended     []bool    // the admitted job reached done
	handlerNS []int64
	depth     []scrapeSample
	reasons   map[string]int // refusal reasons the server gave
	admitted  int
	deferred  int
	rejected  int
	failed    int // refused, errored or not done, of all requests
	notDone   int
}

type scrapeSample struct {
	at      int64
	pending float64
	maxQ    float64
}

// nanosleep paces the generator: time.Sleep rounds short waits up to the
// runtime timer's millisecond granularity, which would delay most
// requests by about a millisecond.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// runPhase offers the phase's schedule open loop from one generator
// goroutine to at most `workers` requests in flight, then collects the
// terminal state of every admitted job and checks the client's tallies
// against the server's /metrics counters.
func (s *serveBench) runPhase(p *phase, traced bool) *phaseRun {
	n := len(p.reqs)
	r := &phaseRun{pick: make([]int64, n), done: make([]int64, n), code: make([]int, n),
		id: make([]string, n), inproc: make([]bool, n), latencyMS: make([]float64, n), ended: make([]bool, n), reasons: map[string]int{}}
	before, err := s.scrape()
	if err != nil {
		s.g.fail("serve-mix: %s: scrape: %v", p.name, err)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards r.depth and r.handlerNS
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := range work {
				buf = s.do(p, r, i, traced, buf, &mu)
			}
		}()
	}
	r.start = time.Now()
	for i := range p.reqs {
		if d := p.reqs[i].due - time.Since(r.start); d > 0 {
			nanosleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	s.collect(p, r)
	after, err := s.scrape()
	if err != nil {
		s.g.fail("serve-mix: %s: scrape: %v", p.name, err)
	}
	s.checkTallies(p, r, before, after)
	return r
}

// do performs request i of the phase on a sender goroutine.
func (s *serveBench) do(p *phase, r *phaseRun, i int, traced bool, buf []byte, mu *sync.Mutex) []byte {
	q := &p.reqs[i]
	r.pick[i] = int64(time.Since(r.start))
	switch q.kind {
	case reqSubmit:
		buf = s.sched.templates[q.tmpl].appendBody(buf[:0], int(q.job))
		tenant := serveTenants[q.tenant].name
		var code int
		var resp serve.SubmitResponse
		var err error
		if traced && q.job%serveHandlerEvery == 0 {
			// In process, straight into the handler: the gap between this
			// and the loopback round trip is the HTTP transport.
			req := httptest.NewRequest(http.MethodPost, "/v1/graphs", bytes.NewReader(buf))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-RAA-Tenant", tenant)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			s.h.Server.Handler().ServeHTTP(rec, req)
			ns := int64(time.Since(t0))
			code = rec.Code
			err = json.Unmarshal(rec.Body.Bytes(), &resp)
			r.inproc[i] = true
			mu.Lock()
			r.handlerNS = append(r.handlerNS, ns)
			mu.Unlock()
		} else {
			code, err = s.post(buf, tenant, &resp)
		}
		r.done[i] = int64(time.Since(r.start))
		r.code[i] = code
		if err != nil {
			r.code[i] = -1
			s.g.fail("serve-mix: submit: %v", err)
		} else if code == http.StatusAccepted {
			r.id[i] = resp.Job
			s.lastID.Store(&resp.Job)
		} else {
			mu.Lock()
			r.reasons[resp.Reason]++
			mu.Unlock()
		}
	case reqRead:
		id := s.lastID.Load()
		code := -1
		if id != nil {
			var st serve.JobStatus
			var err error
			code, err = s.get("/v1/jobs/"+*id, &st)
			if err != nil {
				code = -1
			}
		}
		r.done[i] = int64(time.Since(r.start))
		r.code[i] = code
	case reqScrape:
		m, err := s.scrape()
		r.done[i] = int64(time.Since(r.start))
		r.code[i] = http.StatusOK
		if err != nil {
			r.code[i] = -1
			break
		}
		sample := scrapeSample{at: r.pick[i], pending: m["raa_serve_jobs_pending"]}
		for k, v := range m {
			if strings.HasPrefix(k, "raa_serve_tenant_queue_depth{") {
				sample.maxQ = math.Max(sample.maxQ, v)
			}
		}
		mu.Lock()
		r.depth = append(r.depth, sample)
		mu.Unlock()
	}
	return buf
}

func (s *serveBench) post(body []byte, tenant string, resp *serve.SubmitResponse) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/graphs", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-RAA-Tenant", tenant)
	res, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(resp); err != nil {
		return res.StatusCode, err
	}
	_, _ = io.Copy(io.Discard, res.Body) // drain for connection reuse
	return res.StatusCode, nil
}

func (s *serveBench) get(path string, v any) (int, error) {
	res, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	if res.StatusCode == http.StatusOK {
		err = json.NewDecoder(res.Body).Decode(v)
	}
	_, _ = io.Copy(io.Discard, res.Body)
	return res.StatusCode, err
}

// scrape reads /metrics into a map keyed by the full series name.
func (s *serveBench) scrape() (map[string]float64, error) {
	res, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", k, err)
		}
		m[k] = f
	}
	return m, sc.Err()
}

// collect waits for every admitted job of the phase to reach a terminal
// state and records the server's latency; a job that ends other than done
// fails the run. Reading states after the load keeps polling from adding
// connections while it runs.
func (s *serveBench) collect(p *phase, r *phaseRun) {
	var wg sync.WaitGroup
	var notDone atomic.Int64
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(p.reqs); i += s.workers {
				if r.id[i] == "" {
					continue
				}
				var st serve.JobStatus
				code, err := s.get("/v1/jobs/"+r.id[i]+"?wait=30s", &st)
				if err != nil || code != http.StatusOK || st.State != "done" {
					notDone.Add(1)
					s.g.fail("serve-mix: %s: job %s ended %q (status %d, err %v)", p.name, r.id[i], st.State, code, err)
					continue
				}
				r.latencyMS[i] = st.LatencyMS
				r.ended[i] = true
			}
		}()
	}
	wg.Wait()
	r.notDone = int(notDone.Load())
	for i := range p.reqs {
		switch {
		case p.reqs[i].kind != reqSubmit:
			if r.code[i] != http.StatusOK {
				r.failed++
			}
		case r.code[i] == http.StatusAccepted:
			r.admitted++
		case r.code[i] == http.StatusServiceUnavailable:
			r.deferred++
			r.failed++
		case r.code[i] == http.StatusTooManyRequests:
			r.rejected++
			r.failed++
		default:
			r.failed++
		}
	}
	r.failed += r.notDone
}

// checkTallies compares the client's verdict and task counts with the
// /metrics deltas over the phase.
func (s *serveBench) checkTallies(p *phase, r *phaseRun, before, after map[string]float64) {
	delta := func(k string) int { return int(after[k] - before[k]) }
	tasks := 0
	for i := range p.reqs {
		if r.ended[i] {
			tasks += len(s.sched.templates[p.reqs[i].tmpl].spins)
		}
	}
	checks := []struct {
		what         string
		client, srvr int
	}{
		{"admitted", r.admitted, delta(`raa_serve_admission_total{verdict="admit"}`)},
		{"deferred", r.deferred, delta(`raa_serve_admission_total{verdict="defer"}`)},
		{"rejected", r.rejected, delta(`raa_serve_admission_total{verdict="reject"}`)},
		{"executed tasks", tasks, delta("raa_pool_executed_total")},
	}
	for _, c := range checks {
		if c.client != c.srvr {
			s.g.fail("serve-mix: %s: client counted %d %s, /metrics %d", p.name, c.client, c.what, c.srvr)
		}
	}
}

// phaseStats are the end-to-end figures of one or more phases.
type phaseStats struct {
	job, submit, rtt, read, scrape, late dist
	// windowP50 is the median, over serveWindow-long stretches of the
	// phases (by due time), of each stretch's median job latency: a
	// stretch the host stalled moves one window, not the figure.
	windowP50 float64
	growing   bool
}

// serveWindow is the stretch of a phase one windowed median covers.
const serveWindow = 500 * time.Millisecond

// phaseRecord pairs a phase with what its requests observed.
type phaseRecord struct {
	p *phase
	r *phaseRun
}

func (s *serveBench) stats(recs ...phaseRecord) *phaseStats {
	ps := &phaseStats{}
	var medians []float64
	for _, rec := range recs {
		p, r := rec.p, rec.r
		windows := make([]dist, p.dur/serveWindow+1)
		for i := range p.reqs {
			q := &p.reqs[i]
			due := int64(q.due)
			ps.late.add(float64(r.pick[i]-due) / 1e6)
			switch q.kind {
			case reqSubmit:
				if r.code[i] != http.StatusAccepted {
					continue
				}
				ps.submit.add(float64(r.done[i]-due) / 1e6)
				if !r.inproc[i] {
					ps.rtt.add(float64(r.done[i]-r.pick[i]) / 1e6)
				}
				if r.ended[i] {
					ms := float64(r.done[i]-due)/1e6 + r.latencyMS[i]
					ps.job.add(ms)
					windows[q.due/serveWindow].add(ms)
				}
			case reqRead:
				ps.read.add(float64(r.done[i]-r.pick[i]) / 1e6)
			case reqScrape:
				ps.scrape.add(float64(r.done[i]-r.pick[i]) / 1e6)
			}
		}
		for i := range windows {
			if windows[i].n() > 0 {
				medians = append(medians, windows[i].median())
			}
		}
		// A backlog grows when the second half's mean pending depth
		// exceeds the first half's by more than serveGrow jobs.
		var first, second, nf, ns float64
		for _, d := range r.depth {
			if time.Duration(d.at) < p.dur/2 {
				first += d.pending
				nf++
			} else {
				second += d.pending
				ns++
			}
		}
		if nf > 0 && ns > 0 && second/ns > first/nf+serveGrow {
			ps.growing = true
		}
	}
	ps.windowP50 = median(medians)
	return ps
}

// meetsSLO: every request served, the tail job latency within the limit,
// and no growing backlog.
func (ps *phaseStats) meetsSLO(failed int) bool {
	t, _ := ps.job.tail()
	return failed == 0 && ps.job.n() > 0 && t <= float64(serveSLO)/1e6 && !ps.growing
}

// runPhases runs the named phases back to back, each collected and
// checked before the next starts, and counts their requests in the gate.
func (s *serveBench) runPhases(names ...string) (recs []phaseRecord, failed int, reasons map[string]int) {
	reasons = map[string]int{}
	for _, name := range names {
		p := s.sched.phases[name]
		r := s.runPhase(&p, false)
		s.g.count(int64(len(p.reqs)), int64(r.failed))
		failed += r.failed
		for k, v := range r.reasons {
			reasons[k] += v
		}
		recs = append(recs, phaseRecord{&p, r})
	}
	return recs, failed, reasons
}

func (s *serveBench) measure(d time.Duration, rep *report) {
	prefix := ""
	if d < time.Duration(s.seconds)*time.Second {
		prefix = "half."
	}
	var st0, st1 runtime.Stats
	rt := s.h.Server.Runtime()
	rt.StatsInto(&st0)
	gs := readGoStats()
	cpu0 := cpuTime()
	heap := startHeapSampler()
	heavy := make([]string, serveSegments)
	for i := range heavy {
		heavy[i] = fmt.Sprintf("%sheavy%d", prefix, i)
	}
	for _, ph := range []struct {
		name   string
		phases []string
	}{{"light", []string{prefix + "light"}}, {"heavy", heavy}} {
		recs, failed, reasons := s.runPhases(ph.phases...)
		ps := s.stats(recs...)
		name := ph.name
		rep.set("job_ms.p50."+name, ps.job.median(), "ms")
		rep.note("job_ms.p50."+name, fmt.Sprintf("%d jobs at %.0f/s", ps.job.n(), recs[0].p.rate))
		if failed > 0 {
			rep.note("job_ms.p50."+name, fmt.Sprintf("%d jobs at %.0f/s; %d requests failed, refusals %v",
				ps.job.n(), recs[0].p.rate, failed, reasons))
		}
		rep.set("job_ms.p50w."+name, ps.windowP50, "ms")
		rep.note("job_ms.p50w."+name, fmt.Sprintf("median of %v-window medians", serveWindow))
		v, bp := ps.job.tail()
		rep.setTail("job_ms.tail."+name, v, bp, ps.job.n(), "ms")
		if name == "heavy" {
			rep.set("submit_ms.p50.heavy", ps.submit.median(), "ms")
			rep.set("submit_rtt_ms.p50.heavy", ps.rtt.median(), "ms")
			rep.note("submit_rtt_ms.p50.heavy", fmt.Sprintf("send to 202, %d submits", ps.rtt.n()))
			v, bp := ps.submit.tail()
			rep.setTail("submit_ms.tail.heavy", v, bp, ps.submit.n(), "ms")
			rep.set("read_ms.p50.heavy", ps.read.median(), "ms")
			v, bp = ps.late.tail()
			rep.setTail("loadgen.late_ms.tail", v, bp, ps.late.n(), "ms")
		}
	}
	rt.StatsInto(&st1)
	heap.stop(rep)
	reportCPU(rep, cpu0, float64(st1.Executed-st0.Executed))
	reportGo(rep, gs, float64(st1.Executed-st0.Executed))
	reportFaults(rep, &st0, &st1)
}

// ladder climbs the rates of serveLadder above the heavy rate and stops
// at the first that misses the limit. It reports the highest rate that
// met it, starting from the traced heavy phase's (heavy, heavyTail), and
// where the tail crosses the limit, log-interpolated between that rate
// and the first that missed.
func (s *serveBench) ladder(rep *report, heavy *phaseStats, heavyFailed int) {
	passRate, passTail, failRate, failTail := 0.0, 0.0, 0.0, 0.0
	if t, _ := heavy.job.tail(); heavy.meetsSLO(heavyFailed) {
		passRate, passTail = serveHeavy, t
	} else {
		failRate, failTail = serveHeavy, t
	}
	for i := 0; passRate > 0 && i < len(serveLadder); i++ {
		p := s.sched.phases[fmt.Sprintf("rung%d", i)]
		r := s.runPhase(&p, false)
		ps := s.stats(phaseRecord{&p, r})
		t, bp := ps.job.tail()
		name := fmt.Sprintf("ladder.%.0f", p.rate)
		rep.setTail(name, t, bp, ps.job.n(), "ms")
		rep.note(name, fmt.Sprintf("tail %s of %d jobs, %d refused %v, growing backlog %v",
			pctName(bp), ps.job.n(), r.failed, r.reasons, ps.growing))
		if !ps.meetsSLO(r.failed) {
			failRate, failTail = p.rate, t
			break
		}
		passRate, passTail = p.rate, t
	}
	rep.set("max_rate_jobs_s", passRate, "1/s")
	rep.note("max_rate_jobs_s", fmt.Sprintf("highest rate with tail job latency ≤ %v, nothing refused, no growing backlog", serveSLO))
	rep.set("slo_rate_jobs_s", sloRate(passRate, passTail, failRate, failTail), "1/s")
	rep.note("slo_rate_jobs_s", "where the tail crosses the limit, log-interpolated between the last passing and the first failing rate")
}

// sloRate estimates the rate at which the tail job latency crosses the
// limit, interpolating log(tail) linearly between the last rate that met
// the limit and the first that missed it. A rate that missed for another
// reason than its tail (refusals, a growing backlog) bounds the estimate
// at the passing rate.
func sloRate(passRate, passTail, failRate, failTail float64) float64 {
	slo := float64(serveSLO) / 1e6
	if failRate == 0 || !(failTail > slo) || !(passTail > 0) || passTail >= failTail {
		return passRate
	}
	f := (math.Log(slo) - math.Log(passTail)) / (math.Log(failTail) - math.Log(passTail))
	return passRate + (failRate-passRate)*math.Max(0, math.Min(1, f))
}

func (s *serveBench) traced(d time.Duration, rep *report) {
	p := s.sched.phases["traced"]
	s.body0 = make([]int64, int(s.sched.jobs)*serveMaxTasks)
	s.body1 = make([]int64, len(s.body0))
	rt := s.h.Server.Runtime()
	var st0, st1 runtime.Stats
	rt.StatsInto(&st0)
	fr := startFlightCheck(rt)
	s.stamp.Store(true)
	r := s.runPhase(&p, true)
	s.stamp.Store(false)
	vs, collectUS, statsNS := fr.stop()
	rt.StatsInto(&st1)
	s.g.count(int64(len(p.reqs)), int64(r.failed))
	ps := s.stats(phaseRecord{&p, r})
	s.tracedPhase, s.tracedRun = &p, r

	rep.set("job_ms.p50w.heavy", ps.windowP50, "ms")
	rep.note("job_ms.p50w.heavy", fmt.Sprintf("%d traced jobs at %.0f/s", ps.job.n(), p.rate))
	setDist(rep, "serve.submit_rtt_ms", &ps.rtt, "ms")
	var handler dist
	for _, ns := range r.handlerNS {
		handler.add(float64(ns) / 1e3)
	}
	setDist(rep, "serve.handler_submit_us", &handler, "us")

	var queue, run, lag dist
	var ready, body hist
	sumBody := int64(0)
	s.jobDone = make([]int64, len(p.reqs))
	for i := range p.reqs {
		q := &p.reqs[i]
		if !r.ended[i] {
			continue
		}
		t := &s.sched.templates[q.tmpl]
		base := int(q.job) * serveMaxTasks
		first, last := int64(math.MaxInt64), int64(0)
		for k := range t.spins {
			b0, b1 := s.body0[base+k], s.body1[base+k]
			first, last = min(first, b0), max(last, b1)
			body.add(float64(b1-b0) / 1e3)
			sumBody += b1 - b0
			if len(t.preds[k]) > 0 {
				rd := int64(0)
				for _, pr := range t.preds[k] {
					rd = max(rd, s.body1[base+int(pr)])
				}
				ready.add(float64(max(b0-rd, 0)) / 1e3)
			}
		}
		// Body stamps are on the benchmark clock; convert the 202 and the
		// terminal time (202 + the server's latency) to it.
		t202 := s.clk.since(r.start) + r.done[i]
		s.jobDone[i] = t202 + int64(r.latencyMS[i]*1e6)
		queue.add(float64(first-t202) / 1e6)
		run.add(float64(last-first) / 1e6)
		lag.add(float64(s.jobDone[i]-last) / 1e6)
	}
	setDist(rep, "serve.queue_wait_ms", &queue, "ms")
	rep.set("serve.run_ms.p50", run.median(), "ms")
	rep.set("serve.complete_lag_ms.p50", lag.median(), "ms")
	setHist(rep, "runtime.ready_wait_us", &ready, "us")
	rep.set("runtime.body_us.p50", body.pct(5000), "us")
	rep.set("runtime.busy_frac", float64(sumBody)/(float64(s.workers)*float64(p.dur)), "frac")
	rep.set("runtime.stats_into_ns", statsNS.pct(5000), "ns")
	rep.set("runtime.steals_per_task", float64(st1.Steals-st0.Steals)/float64(max(st1.Executed-st0.Executed, 1)), "count")
	reportFaults(rep, &st0, &st1)

	adm := float64(r.admitted)
	rep.set("serve.verdict.admit", adm, "count")
	rep.set("serve.verdict.defer", float64(r.deferred), "count")
	rep.set("serve.verdict.reject", float64(r.rejected), "count")
	rep.set("serve.admit_frac", adm/math.Max(adm+float64(r.deferred+r.rejected), 1), "frac")
	maxQ := 0.0
	for _, d := range r.depth {
		maxQ = math.Max(maxQ, d.maxQ)
	}
	rep.set("serve.tenant_queue_depth.max", maxQ, "count")
	rep.set("serve.metrics_scrape_ms.p50", ps.scrape.median(), "ms")
	v, bp := ps.late.tail()
	rep.setTail("loadgen.late_ms.tail", v, bp, ps.late.n(), "ms")

	rep.set("flightrec.events_per_task", float64(st1.FlightEvents-st0.FlightEvents)/float64(max(st1.Executed-st0.Executed, 1)), "count")
	rep.set("flightrec.collect_us", collectUS.pct(5000), "us")
	rep.set("flightrec.violations", float64(vs.Total), "count")
	rep.set("flightrec.gaps", float64(vs.Gaps), "count")
	// Reported, not gated: the checker judges some orderings by timing
	// windows, which a host that stalls a thread for tens of
	// milliseconds can open; a violation is a finding to chase with the
	// spans and the recorder, not a wrong result of this run.
	var first []string
	for _, v := range fr.violations {
		first = append(first, v.Invariant.String()+": "+v.Detail)
	}
	if len(first) > 0 {
		rep.note("flightrec.violations", "first: "+strings.Join(first, "; "))
	}
	// The capacity search runs untraced after the traced phase; its
	// refusals past the knee are what it measures, so they are not
	// counted as failures.
	s.ladder(rep, ps, r.failed)
}

// setDist reports a sample set's median and tail as name.p50 / name.tail.
func setDist(rep *report, name string, d *dist, unit string) {
	rep.set(name+".p50", d.median(), unit)
	v, bp := d.tail()
	rep.setTail(name+".tail", v, bp, d.n(), unit)
}

// flightCheck drains the pool's flight recorder through a cursor into the
// online invariant checker every few milliseconds, timing each Collect,
// and samples the cost of a StatsInto snapshot on the same beat.
type flightCheck struct {
	mu         sync.Mutex
	violations []verify.Violation // the first few, for the report
	rt         *runtime.Runtime
	rec        *flightrec.Recorder
	checker    *verify.Checker
	stopc      chan struct{}
	done       chan struct{}
	collectUS  hist
	statsNS    hist
}

func startFlightCheck(rt *runtime.Runtime) *flightCheck {
	f := &flightCheck{rt: rt, rec: rt.FlightRecorder(), stopc: make(chan struct{}), done: make(chan struct{})}
	f.checker = verify.New(verify.Options{OnViolation: func(v verify.Violation) {
		f.mu.Lock()
		if len(f.violations) < 3 {
			f.violations = append(f.violations, v)
		}
		f.mu.Unlock()
	}})
	go f.run()
	return f
}

func (f *flightCheck) run() {
	defer close(f.done)
	var cur flightrec.Cursor
	var buf []flightrec.Event
	var st runtime.Stats
	// Start from now: events recorded before the traced phase are not
	// this run's to judge.
	buf, _ = f.rec.Collect(&cur, buf[:0])
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		stop := false
		select {
		case <-f.stopc:
			stop = true
		case <-t.C:
		}
		t0 := time.Now()
		events, gap := f.rec.Collect(&cur, buf[:0])
		f.collectUS.add(float64(time.Since(t0)) / 1e3)
		buf = events
		f.checker.Feed(events, gap)
		f.checker.AdvanceTime(f.rec.Now())
		t0 = time.Now()
		f.rt.StatsInto(&st)
		f.statsNS.add(float64(time.Since(t0)))
		if stop {
			return
		}
	}
}

func (f *flightCheck) stop() (verify.Stats, *hist, *hist) {
	close(f.stopc)
	<-f.done
	f.checker.Flush()
	return f.checker.Stats(), &f.collectUS, &f.statsNS
}

func (s *serveBench) writeSpans(path string) error {
	p, r := s.tracedPhase, s.tracedRun
	if p == nil {
		return nil
	}
	off := s.clk.since(r.start)
	return writeTSV(path, "request\tkind\tspan\tstart_ns\tend_ns", func(w *bufio.Writer) {
		for i := range p.reqs {
			q := &p.reqs[i]
			due := off + int64(q.due)
			pick, done := off+r.pick[i], off+r.done[i]
			switch q.kind {
			case reqRead:
				fmt.Fprintf(w, "%d\tread\tdue_to_send\t%d\t%d\n%d\tread\tread\t%d\t%d\n", i, due, pick, i, pick, done)
			case reqScrape:
				fmt.Fprintf(w, "%d\tscrape\tdue_to_send\t%d\t%d\n%d\tscrape\tscrape\t%d\t%d\n", i, due, pick, i, pick, done)
			case reqSubmit:
				fmt.Fprintf(w, "%d\tsubmit\tdue_to_send\t%d\t%d\n%d\tsubmit\tpost\t%d\t%d\n", i, due, pick, i, pick, done)
				if !r.ended[i] {
					continue
				}
				t := &s.sched.templates[q.tmpl]
				base := int(q.job) * serveMaxTasks
				first, last := int64(math.MaxInt64), int64(0)
				for k := range t.spins {
					b0, b1 := s.body0[base+k], s.body1[base+k]
					first, last = min(first, b0), max(last, b1)
					fmt.Fprintf(w, "%d\ttask%d\tbody\t%d\t%d\n", i, k, b0, b1)
				}
				fmt.Fprintf(w, "%d\tsubmit\tqueue_wait\t%d\t%d\n%d\tsubmit\trun\t%d\t%d\n%d\tsubmit\tcomplete_lag\t%d\t%d\n",
					i, done, first, i, first, last, i, last, s.jobDone[i])
			}
		}
	})
}

func (s *serveBench) close() {
	s.h.Close()
	s.client.CloseIdleConnections()
}
