package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
	"repro/internal/tdg"
)

// ErrShutdown is returned by Submit variants called after Shutdown.
var ErrShutdown = errors.New("runtime: submit after Shutdown")

// ErrNoTrace is returned by Graph when the runtime was built without
// WithTraceRetention: the task trace needed for the export is not kept
// (by default completed tasks are released, so a long-lived runtime's
// memory stays bounded by the work in flight).
var ErrNoTrace = errors.New("runtime: Graph requires WithTraceRetention (task trace is not retained by default)")

// AccessMode is the dependence annotation of one task argument.
type AccessMode int

const (
	// ModeIn: the task reads the datum (RAW edge from its last writer).
	ModeIn AccessMode = iota
	// ModeOut: the task overwrites the datum (WAR edges from readers, WAW
	// from the last writer).
	ModeOut
	// ModeInOut: read-modify-write (all of the above).
	ModeInOut
)

// String implements fmt.Stringer.
func (m AccessMode) String() string {
	switch m {
	case ModeIn:
		return "in"
	case ModeOut:
		return "out"
	case ModeInOut:
		return "inout"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

// Dep pairs a data key with its access mode. Keys may be anything
// comparable: pointers, strings, struct{array, block} pairs…
type Dep struct {
	Key  any
	Mode AccessMode
}

// In declares a read dependence on key.
func In(key any) Dep { return Dep{Key: key, Mode: ModeIn} }

// Out declares a write dependence on key.
func Out(key any) Dep { return Dep{Key: key, Mode: ModeOut} }

// InOut declares a read-write dependence on key.
func InOut(key any) Dep { return Dep{Key: key, Mode: ModeInOut} }

// SchedulerKind selects the scheduling policy.
type SchedulerKind int

const (
	// WorkSteal is the default Nanos++-style scheduler.
	WorkSteal SchedulerKind = iota
	// FIFO is a single central queue.
	FIFO
	// CATS is the criticality-aware task scheduler.
	CATS
)

// String implements fmt.Stringer.
func (k SchedulerKind) String() string {
	switch k {
	case WorkSteal:
		return "worksteal"
	case FIFO:
		return "fifo"
	case CATS:
		return "cats"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(k))
	}
}

// SchedulerNames lists the valid SchedulerByName inputs in display order.
func SchedulerNames() []string {
	return []string{WorkSteal.String(), FIFO.String(), CATS.String()}
}

// SchedulerByName parses a SchedulerKind from its String form. Matching is
// case-insensitive and tolerates surrounding whitespace; the empty string
// resolves to the WorkSteal default. Unknown names produce an error that
// lists every valid name.
func SchedulerByName(name string) (SchedulerKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "worksteal", "work-steal", "":
		return WorkSteal, nil
	case "fifo":
		return FIFO, nil
	case "cats":
		return CATS, nil
	default:
		return 0, fmt.Errorf("runtime: unknown scheduler %q (valid: %s)",
			name, strings.Join(SchedulerNames(), ", "))
	}
}

// TaskID identifies a submitted task.
type TaskID int

// Body is a task body: it receives the context the task was submitted with
// (augmented with the executing worker's placement — see TaskPlacement)
// and may fail. The first non-nil error across all tasks is captured and
// reported by Err and WaitCtx.
//
// The context argument may be retained, derived from, and used from other
// goroutines like any context — the placement wrapper is immutable.
// Submissions made with it (from the body or from goroutines it spawned)
// take the worker-local locality path: they land in the executing
// worker's submit buffer, keeping producer-side task creation near the
// producer's cache. Note that a retained context keeps reporting the
// placement of the body it was handed to.
type Body func(ctx context.Context) error

type taskState int32

const (
	statePending taskState = iota // waiting on dependences
	stateReady                    // in a queue
	stateRunning
	stateDone
)

// inlineArity is the dependence/successor count a task record holds inline.
// Tasks with at most this many deps (and successors) allocate nothing for
// them; larger fans spill to a slice that the record keeps (and reuses)
// across pool recycles.
const inlineArity = 4

// task is one task record. Records are pooled: when the runtime runs
// without WithTraceRetention, complete() retires the record back into the
// runtime's freelist and a later submission reuses it, so the steady-state
// task lifecycle performs no heap allocation. Reuse is made safe by the
// claim word (see below): every reference that can outlive the task — the
// tracker's key entries and the CATS heap's lazy stale
// entries — carries the generation it was created under and is ignored
// once the generations diverge.
type task struct {
	id       TaskID
	name     string
	cost     float64
	priority int64 // CATS bottom-level estimate (accessed atomically)
	// claim packs the record's reuse generation with the dispatch-claim
	// bit: claim == gen<<1 | claimedBit. A scheduler that may hold more
	// than one queue entry for the task (the CATS heap's lazy stale-entry
	// scheme) claims a dispatch by CASing gen<<1 → gen<<1|1, so an entry
	// from an earlier generation can neither double-dispatch the task nor
	// hijack a recycled record. complete() retires the record by bumping
	// the generation (inside its t.mu critical section), which atomically
	// invalidates every outstanding stale reference.
	claim uint64
	// readyClaim is the claim word snapshotted (atomically, under t.mu)
	// when the task is marked stateReady, just before it is handed to the
	// scheduler. CATS entries snapshot THIS word rather than the live one:
	// between the ready transition and the scheduler insert, a concurrent
	// registration that finds this task as a predecessor may bump it —
	// inserting it into the heap early — and that early entry can dispatch
	// the task to completion (and recycling) before the original push
	// runs. The original push then inserts a late entry for a record that
	// has moved on; snapshotting the ready-time word makes that late
	// entry's claim CAS fail on the bumped generation instead of
	// dispatching a dead or foreign record.
	readyClaim uint64
	fn         Body
	plainFn    func() // plain-function body (Submit); fn wins when both are set
	ctx        context.Context
	// onDone is the batch path's per-task completion hook (TaskSpec.OnDone):
	// called exactly once on the executing worker after the body returns (or
	// after the skip decision on a cancelled context), strictly before the
	// record can be recycled. Only the dispatching worker reads it, so plain
	// access suffices.
	onDone func(error)
	// retry and deadline are the spec's fault-tolerance knobs; attempt is
	// the number of failed attempts already consumed (0 on the first run).
	// Only the dispatching worker and the backoff re-arm touch attempt, and
	// the scheduler hand-off orders them, so plain access suffices.
	retry    RetryPolicy
	deadline time.Duration
	attempt  int32
	// skipCause, when non-nil, poisons the task: a predecessor terminally
	// panicked, so the body is skipped with a SkipError wrapping the root
	// cause (and the poison propagates to this task's own successors).
	// Written by completing predecessors and read at dispatch, both under
	// t.mu.
	skipCause error

	mu    sync.Mutex
	state taskState
	// npreds is the number of incomplete predecessors.
	npreds int32
	seq    int64 // submission order, for deterministic tie-breaks

	// Successors: the common small fan lives in succsInl; wider fans spill
	// to succsOvf (whose capacity the record keeps across recycles).
	// Entries are direct pointers, not generation-tagged references: an
	// edge is added only under the predecessor's mutex with its generation
	// validated and its state not yet done, so the predecessor's complete
	// — the only consumer — always captures each entry exactly once while
	// the successor is still pending.
	nsuccs   int32
	succsInl [inlineArity]*task
	succsOvf []*task

	// Declared dependences, same inline-then-spill scheme. With trace
	// retention these double as the dependence log Graph replays.
	ndeps   int32
	depsInl [inlineArity]Dep
	depsOvf []Dep
	// Each dependence's tracker shard, parallel to the deps: filled by
	// shardPlan and read by trackDeps, so a key is hashed once per
	// registration. Same inline-then-spill scheme.
	shardsInl [inlineArity]uint8
	shardsOvf []uint8

	// logShard is the shard whose task log records t (retention only).
	logShard int32

	// home is the worker the task was released toward: the completing
	// worker for successor releases, the hinted worker for body-context
	// submissions, -1 for external submissions. Stamped inside the ready
	// transition's t.mu critical section (and read after the pop that
	// synchronises with the ready push), so plain access suffices. It feeds
	// the per-domain local/cross dispatch accounting and the domain pair
	// packed into dispatch events for the verifier.
	home int32
	// affinity is the worker that executed the task's latest-finishing
	// predecessor (-1 = none): where the task's input data is plausibly
	// hot. Atomic — a stale CATS entry snapshot may read a recycled
	// record's field concurrently with newTask's reset.
	affinity int32
	// exec is the worker that dispatched the task (-1 until then). Atomic
	// for the same pooling reason; reset only in newTask so a completed
	// predecessor still reports its executor to linkPreds.
	exec int32
}

// taskRef is a generation-tagged task reference: a *task plus the claim
// word observed when the reference was created. Holders that may outlive
// the task (tracker state, the preds scratch) validate the reference
// before use — gen() mismatch means the record was recycled, i.e. the
// referenced task completed long ago.
type taskRef struct {
	t *task
	// claim is the referent's claim word at reference-creation time.
	claim uint64
}

// live reports whether the referent has not been retired since the
// reference was created. Generations only grow, so a false answer is
// final; a true one may go stale the moment it is returned, which is why
// linkPreds repeats the check under the referent's mutex.
func (ref taskRef) live() bool {
	return claimGen(atomic.LoadUint64(&ref.t.claim)) == claimGen(ref.claim)
}

// gen extracts the generation from a claim word.
func claimGen(claim uint64) uint64 { return claim >> 1 }

// ref builds a generation-tagged reference to t. Callers must own t or
// hold a lock that keeps it live (registration does: the task cannot
// complete before its own submission finishes).
func (t *task) ref() taskRef {
	return taskRef{t: t, claim: atomic.LoadUint64(&t.claim)}
}

// setDeps installs the declared dependences: inline up to inlineArity,
// spilling to (and reusing) the overflow slice past it.
func (t *task) setDeps(deps []Dep) {
	t.ndeps = int32(len(deps))
	if len(deps) <= inlineArity {
		copy(t.depsInl[:], deps)
		return
	}
	t.depsOvf = append(t.depsOvf[:0], deps...)
}

// deps returns the declared dependences as a read-only view.
func (t *task) deps() []Dep {
	if int(t.ndeps) <= inlineArity {
		return t.depsInl[:t.ndeps]
	}
	return t.depsOvf
}

// depShards returns the per-dependence shard slots, one per declared
// dependence, spilling to (and reusing) the overflow past inlineArity.
func (t *task) depShards() []uint8 {
	n := int(t.ndeps)
	if n <= inlineArity {
		return t.shardsInl[:n]
	}
	if cap(t.shardsOvf) < n {
		t.shardsOvf = make([]uint8, n)
	}
	return t.shardsOvf[:n]
}

// clearDeps drops the dependence annotations (and the interface keys they
// pin), keeping the overflow capacity for reuse.
func (t *task) clearDeps() {
	for i := range t.depsInl {
		t.depsInl[i] = Dep{}
	}
	for i := range t.depsOvf {
		t.depsOvf[i] = Dep{}
	}
	t.depsOvf = t.depsOvf[:0]
	t.ndeps = 0
}

// addSucc records a successor edge. Caller holds t.mu. The first spill
// past the inline slots allocates a capacity-8 overflow directly: pooled
// records serve as wide-fan roots only occasionally (role assignment
// drifts as records rotate through the freelist), and jumping straight to
// a useful capacity instead of doubling up from one element keeps those
// first-service growth allocations from trickling through the steady
// state.
func (t *task) addSucc(s *task) {
	if int(t.nsuccs) < inlineArity {
		t.succsInl[t.nsuccs] = s
	} else {
		if t.succsOvf == nil {
			t.succsOvf = make([]*task, 0, 8)
		}
		t.succsOvf = append(t.succsOvf, s)
	}
	t.nsuccs++
}

// takeSuccs appends t's successors to buf, clearing them from the record
// (slots nilled so nothing stays pinned, overflow capacity kept). Caller
// holds t.mu.
func (t *task) takeSuccs(buf []*task) []*task {
	inl := int(t.nsuccs)
	if inl > inlineArity {
		inl = inlineArity
	}
	for i := 0; i < inl; i++ {
		buf = append(buf, t.succsInl[i])
		t.succsInl[i] = nil
	}
	buf = append(buf, t.succsOvf...)
	for i := range t.succsOvf {
		t.succsOvf[i] = nil
	}
	t.succsOvf = t.succsOvf[:0]
	t.nsuccs = 0
	return buf
}

// Stats summarises a runtime's activity.
type Stats struct {
	Submitted uint64
	Executed  uint64
	Steals    uint64
	// Skipped counts tasks whose context was cancelled before they started,
	// plus tasks skip-poisoned by a terminally panicked predecessor.
	Skipped uint64
	// Panics counts recovered task-body (and OnDone-hook) panics — every
	// occurrence, including attempts that were subsequently retried.
	Panics uint64
	// Retries counts re-armed attempts under TaskSpec.Retry.
	Retries uint64
	// DeadlineMisses counts body attempts that overran TaskSpec.Deadline.
	DeadlineMisses uint64
	// Quarantined counts tasks terminally failed by a panic (the retry
	// budget, if any, never produced a clean run) plus the skip-poisoned
	// successors they took down with them.
	Quarantined uint64
	// PerWorker counts tasks executed by each worker.
	PerWorker []uint64
	// PerClass aggregates PerWorker by worker class, in WorkerClasses()
	// order (index 0 is the fast class).
	PerClass []uint64
	// PerDomain aggregates scheduling traffic by memory domain, in
	// Topology() order: local vs cross-domain dispatches, steals, and
	// injector traffic (see DomainStats).
	PerDomain []DomainStats
	// TrackedKeys is the number of dependence keys the tracker holds an
	// entry for, over all shards. Entries whose tasks have all retired
	// are swept, so this stays bounded by the keys of the work in flight
	// (plus a per-shard floor) rather than growing with every key ever
	// used — except under WithTraceRetention, which retires nothing.
	TrackedKeys uint64
	// FlightEvents is the total number of events the flight recorder has
	// captured (0 without WithFlightRecorder).
	FlightEvents uint64
	// Adaptive is the policy-layer snapshot: the live policy words plus,
	// with WithAdaptive, the controller's sample and decision counters.
	Adaptive AdaptiveStats
}

// Placement identifies the pool worker executing a task body, delivered
// to the body through its context (TaskPlacement). Simulated heterogeneous
// workloads use Speed to scale their work to the worker they landed on;
// tests and experiments use Class to assert criticality-aware placement.
type Placement struct {
	// Worker is the executing worker's ID (0 ≤ Worker < Workers()).
	Worker int
	// Class is the index of the worker's class in WorkerClasses() order.
	Class int
	// ClassName is the resolved name of the worker's class.
	ClassName string
	// Speed is the worker's class speed multiplier.
	Speed float64
	// Domain is the index of the worker's memory domain in Topology()
	// order — workloads that model domain-sized data use it to count
	// cross-domain handoffs.
	Domain int
	// Attempt is the number of failed attempts this task consumed before
	// the current run: 0 on the first attempt, n on the n-th retry (see
	// TaskSpec.Retry).
	Attempt int
}

// placementKey is the context key TaskPlacement looks up.
type placementKey struct{}

// placementCtx is the context a task body receives: the task's submission
// context augmented with the executing worker's placement. Instances are
// immutable once created — a worker allocates one per distinct submission
// context it dispatches and caches it, so consecutive tasks sharing a
// submission context (the steady state: one context per request, or
// context.Background throughout) share one wrapper at zero per-task
// allocation, while a body that retains its context — directly or through
// a derived context — keeps a chain that stays valid forever.
type placementCtx struct {
	context.Context
	// rt identifies the owning runtime, so a worker hint derived from
	// this context is only trusted by the pool it belongs to.
	rt    *Runtime
	where Placement
}

// Value serves the placement lookup locally and delegates everything else
// to the submission context.
func (c *placementCtx) Value(key any) any {
	if _, ok := key.(placementKey); ok {
		return &c.where
	}
	return c.Context.Value(key)
}

// TaskPlacement reports which worker is executing the current task body.
// It only succeeds on the context a Body receives from the runtime (or one
// derived from it); on any other context it returns a zero Placement and
// false.
func TaskPlacement(ctx context.Context) (Placement, bool) {
	if pc, ok := ctx.(*placementCtx); ok {
		return pc.where, true // fast path: no interface Value chain
	}
	p, ok := ctx.Value(placementKey{}).(*Placement)
	if !ok {
		return Placement{}, false
	}
	return *p, true
}

// submitHint resolves the worker-locality hint of a submission context: a
// submission made with a task body's context (the one this runtime handed
// it) targets the worker that executed that body, so producer-side task
// creation enjoys the same locality benefit as successor release.
// Everything else — foreign contexts, other runtimes' body contexts —
// gets no hint. The hint is safe from any goroutine: hinted submissions
// go through the target worker's mutex-guarded side buffer (see
// localSubmitter), never directly onto its owner-only deque.
func (r *Runtime) submitHint(ctx context.Context) int {
	if pc, ok := ctx.(*placementCtx); ok && pc.rt == r {
		return pc.where.Worker
	}
	return -1
}

// Runtime is one task-pool instance.
type Runtime struct {
	opts  options
	sched scheduler
	// localSub is sched's localSubmitter side, when it has one: the safe
	// landing zone for hinted (body-context) submissions.
	localSub localSubmitter

	// rec is the flight recorder (nil without WithFlightRecorder); every
	// instrumentation site is gated on it so a recorder-less runtime pays
	// one predictable branch. schedSelfRecords marks a scheduler that
	// records its own dispatch events from inside pop — CATS does, carrying
	// the class-gating evidence only it has — so the worker loop must not
	// record a duplicate.
	rec              *flightrec.Recorder
	schedSelfRecords bool

	// classes is the resolved worker-class set, fastest first; classOf maps
	// workerID → class index. Workers 0..fastN-1 are the fast class.
	classes []WorkerClass
	classOf []int

	// domains is the resolved memory-domain topology; domainOf maps
	// workerID → domain index. domCounts is the per-domain dispatch
	// accounting, allocated only for multi-domain pools (single-domain
	// pools skip the hot-path counting entirely). topoEvents marks that
	// dispatch events carry the packed home/exec domain pair — only the
	// steal scheduler on a multi-domain pool, whose placement the
	// verifier's domain-gating invariant can reason about.
	domains    []Domain
	domainOf   []int32
	domCounts  []domainCounters
	topoEvents bool

	// gate serialises submission against Shutdown: submitters hold the
	// (shared, scalable) read side for the registration window, Shutdown
	// takes the write side to set closed. The dependence tracker itself is
	// sharded — see depShard — so concurrent submitters touching disjoint
	// keys proceed in parallel.
	gate   sync.RWMutex
	shards []*depShard
	// seq is the task-ID allocator; TaskIDs double as the sequence numbers
	// that define program order for WAR/WAW resolution.
	seq int64

	outstanding int64 // submitted but not finished
	waitMu      sync.Mutex
	waitCond    *sync.Cond

	// slots is the backpressure semaphore (nil when unbounded). slotMu
	// serialises multi-slot (batch) acquisition: a batch takes its slots
	// while holding slotMu, so two batches can never interleave partial
	// acquisitions and deadlock in hold-and-wait. Single submissions take
	// one slot without slotMu — they hold nothing while waiting.
	slotMu sync.Mutex
	slots  chan struct{}

	errMu    sync.Mutex
	firstErr error

	// sig is the signals layer — the single source of truth for execution
	// counters (per-worker, padded, owner-bumped) that Stats, the sampler,
	// and the adaptive controller all read. pol is the policy layer: the
	// cached atomic words the schedulers consult for every placement
	// decision. sample/sampleMu serve StatsInto: one reusable epoch
	// snapshot instead of per-call aggregation.
	sig      *signals
	pol      *policyWords
	sampleMu sync.Mutex
	sample   signalSample

	// ctrl is the adaptive controller (nil without WithAdaptive). It is
	// the single writer of the policy words once running.
	ctrl *adaptiveController

	// free and pool are the two tiers of the task-record freelist. Without
	// trace retention, complete retires each finished record — first into
	// the fixed-capacity lock-free ring (GC-immune, so the steady state
	// stays allocation-free across collections), overflowing into the
	// sync.Pool (GC-reclaimable) — and newTask reuses it, so the
	// steady-state submit→execute→complete path allocates nothing.
	free *taskFreelist
	pool sync.Pool

	closed   int32 // Submit guard, set at Shutdown entry
	shutdown int32 // worker stop flag, set once the pool drains
	wg       sync.WaitGroup
}

// New creates and starts a runtime.
func New(opts ...Option) *Runtime {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	classes, classOf, fastN := o.resolveClasses()
	o.workers = len(classOf)
	domains, domainOf := o.resolveTopology(o.workers)
	r := &Runtime{
		opts:     o,
		classes:  classes,
		classOf:  classOf,
		domains:  domains,
		domainOf: domainOf,
		shards:   newShards(resolveShards(o.shards)),
		sig:      newSignals(o.workers),
		pol:      newPolicyWords(o.localWindow, len(classes)),
	}
	if len(domains) > 1 {
		r.domCounts = make([]domainCounters, len(domains))
	}
	if o.queueBound > 0 {
		r.slots = make(chan struct{}, o.queueBound)
	}
	// Ring capacity covers twice the queue bound — every outstanding record
	// plus the transient excess that recycle/slot races create — or a
	// generous default for unbounded pools; bursts past it overflow to the
	// sync.Pool tier.
	freeCap := 2048
	if o.queueBound > 0 {
		freeCap = 2 * o.queueBound
	}
	r.free = newTaskFreelist(freeCap)
	r.waitCond = sync.NewCond(&r.waitMu)
	if o.flight != nil {
		// One submit lane per tracker shard: the submit path records a
		// pending task's submit event while still holding a shard mutex,
		// so the lane needs no locking of its own.
		r.rec = flightrec.NewWithLanes(o.workers, len(r.shards), *o.flight)
	}
	layout := classLayout{workers: o.workers, fastN: fastN, classOf: classOf,
		domains: len(domains), domainOf: domainOf}
	switch o.scheduler {
	case FIFO:
		r.sched = newFIFOScheduler(layout, r.pol, r.sig, r.rec)
	case CATS:
		r.sched = newCATSScheduler(layout, r.pol, r.sig, r.rec)
		r.schedSelfRecords = r.rec != nil
	default:
		r.sched = newStealScheduler(layout, r.pol, r.sig, r.rec)
		// Only the steal scheduler's placement honours the domain
		// hierarchy; FIFO pops are domain-blind and CATS's criticality
		// order overrides affinity, so stamping domains into their events
		// would make the verifier's domain-gating check fire on sound runs.
		r.topoEvents = len(domains) > 1
	}
	r.localSub, _ = r.sched.(localSubmitter)
	for w := 0; w < o.workers; w++ {
		r.wg.Add(1)
		go r.worker(w)
	}
	if o.adaptive != nil {
		r.ctrl = newAdaptiveController(r, *o.adaptive)
		go r.ctrl.run()
	}
	return r
}

// Workers returns the pool size (the sum of all class counts).
func (r *Runtime) Workers() int { return r.opts.workers }

// WorkerClasses returns the resolved worker classes, fastest first —
// WithWorkerClasses input after validation, ordering, and naming, or the
// single homogeneous class a WithWorkers pool runs with. Worker IDs are
// assigned in class order: the first WorkerClasses()[0].Count workers are
// the fast class.
func (r *Runtime) WorkerClasses() []WorkerClass {
	return append([]WorkerClass(nil), r.classes...)
}

// Shards returns the dependence-tracker shard count the runtime resolved
// (WithShards input after auto-sizing and clamping).
func (r *Runtime) Shards() int { return len(r.shards) }

// FlightRecorder returns the runtime's flight recorder, or nil when the
// runtime was built without WithFlightRecorder. The recorder stays
// readable (Snapshot, Tail, Collect) after Shutdown — that is the point of
// a flight recorder: the timeline survives the crash site.
func (r *Runtime) FlightRecorder() *flightrec.Recorder { return r.rec }

// Submit adds a task with the given dependences and returns its ID. cost is
// an abstract work estimate used for criticality analysis (0 is fine); fn is
// the task body. Submission order defines the program order used to resolve
// WAR/WAW hazards, as in OmpSs. Submit fails with ErrShutdown after
// Shutdown.
func (r *Runtime) Submit(name string, cost float64, fn func(), deps ...Dep) (TaskID, error) {
	return r.submit(context.Background(), name, cost, 0, nil, fn, deps)
}

// SubmitPriority is Submit with an explicit programmer priority hint (the
// OmpSs priority clause); higher runs earlier under CATS.
func (r *Runtime) SubmitPriority(name string, cost float64, priority int, fn func(), deps ...Dep) (TaskID, error) {
	return r.submit(context.Background(), name, cost, priority, nil, fn, deps)
}

// SubmitCtx is the context-aware, error-returning submission path. The
// context is remembered with the task: if it is cancelled before the task
// starts, the body is skipped and the cancellation error captured; the body
// itself receives ctx so in-flight work can observe cancellation. SubmitCtx
// also blocks for a backpressure slot when WithQueueBound is set, aborting
// with ctx.Err() if the context is cancelled while waiting.
func (r *Runtime) SubmitCtx(ctx context.Context, name string, cost float64, fn Body, deps ...Dep) (TaskID, error) {
	return r.submit(ctx, name, cost, 0, fn, nil, deps)
}

// SubmitPriorityCtx is SubmitCtx with a priority hint.
func (r *Runtime) SubmitPriorityCtx(ctx context.Context, name string, cost float64, priority int, fn Body, deps ...Dep) (TaskID, error) {
	return r.submit(ctx, name, cost, priority, fn, nil, deps)
}

// unwrapCtx strips a body's placement wrapper off a submission context,
// returning the underlying submission context the wrapper delegates to —
// the child task's context is the parent's own submission context, which
// shares the same cancellation. Wrappers are immutable, so this is about
// hygiene, not safety: without it a self-submitting chain would stack one
// wrapper per generation and pay an ever-deeper delegation walk. Only a
// top-level wrapper is stripped; a context the body derived from its
// wrapper keeps the wrapper mid-chain, which is valid indefinitely.
func unwrapCtx(ctx context.Context) context.Context {
	if pc, ok := ctx.(*placementCtx); ok {
		return pc.Context
	}
	return ctx
}

// submit is the shared single-task submission path. Exactly one of fn and
// plain is set by the public wrappers.
func (r *Runtime) submit(ctx context.Context, name string, cost float64, priority int, fn Body, plain func(), deps []Dep) (TaskID, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The locality hint lives on the wrapper; resolve it before unwrapping.
	hint := r.submitHint(ctx)
	ctx = unwrapCtx(ctx)
	if atomic.LoadInt32(&r.closed) != 0 {
		return 0, ErrShutdown
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if r.slots != nil {
		select {
		case r.slots <- struct{}{}:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}

	r.gate.RLock()
	// Authoritative guard: Shutdown sets closed under the gate's write
	// side, so either this submission registers (and increments
	// outstanding) while holding the read side — strictly before
	// Shutdown's drain can observe the pool — or it sees closed here. The
	// lock-free check above is only a fast path.
	if atomic.LoadInt32(&r.closed) != 0 {
		r.gate.RUnlock()
		if r.slots != nil {
			<-r.slots
		}
		return 0, ErrShutdown
	}
	t := r.newTask(ctx, name, cost, priority, fn, plain, deps)
	mask := r.shardPlan(t)
	r.lockShards(mask)
	r.linkPreds(t, r.trackDeps(t))
	// Flight recorder: a task that stays pending gets a submit event; an
	// immediately-ready one gets only its ready event (submission implied),
	// keeping the hot path at one event per submit. The submit event must
	// be recorded BEFORE the final npreds decrement: our own reference
	// keeps the count positive here, so no completing predecessor can
	// record the task's ready event with an earlier sequence number.
	// Recording inside the shard section lets the shard mutex double as
	// the recorder lane's serialisation (recordSubmitLocked).
	if r.rec != nil && atomic.LoadInt32(&t.npreds) > 1 {
		r.recordSubmitLocked(t, mask)
	}
	r.unlockShards(mask)
	r.gate.RUnlock()

	// Capture the ID before publishing: the moment the task is pushed it
	// can execute, complete, and be recycled for an unrelated submission,
	// so no field of t may be read past this point.
	id := t.id
	if atomic.AddInt32(&t.npreds, -1) == 0 {
		t.mu.Lock()
		t.state = stateReady
		t.home = int32(hint) // -1 for external submissions
		rc := atomic.LoadUint64(&t.claim)
		if r.rec != nil {
			// Record BEFORE publishing readyClaim: that store is what arms
			// any concurrent dispatch (a stale CATS insert that loads the
			// fresh word can claim the task immediately), so the ready
			// event's ring write must be complete first — then every
			// snapshot that holds the dispatch also holds the ready, in
			// sequence order. The bump path needs no extra care: it
			// observes stateReady only under this same mutex.
			r.rec.RecordExternal(flightrec.KindReady, uint64(id), rc, 0)
		}
		atomic.StoreUint64(&t.readyClaim, rc)
		t.mu.Unlock()
		// A hinted (body-context) submission lands in the target worker's
		// submit buffer — safe from any goroutine, unlike the deque.
		if hint < 0 || r.localSub == nil || !r.localSub.submitLocal(t, hint) {
			r.sched.push(t, -1)
		}
	}
	return id, nil
}

// recordSubmitLocked records a pending task's submit event on the recorder
// lane of one of the shards the caller holds — the lowest set in mask —
// so the shard mutex doubles as the lane's serialisation and the record
// costs no locking of its own. A pending task always registered real
// predecessors, so mask is non-zero on this path; the zero-mask fallback
// only guards against a future caller.
func (r *Runtime) recordSubmitLocked(t *task, mask uint64) {
	if mask == 0 {
		r.rec.RecordExternal(flightrec.KindSubmit, uint64(t.id), atomic.LoadUint64(&t.claim), 0)
		return
	}
	r.rec.RecordLane(bits.TrailingZeros64(mask), flightrec.KindSubmit,
		uint64(t.id), atomic.LoadUint64(&t.claim), 0)
}

// newTask readies a task record — reusing one from the freelist when
// available — and allocates its ID/sequence number, counting it
// outstanding. Must be called with the gate's read side held so the
// increment is ordered before any concurrent Shutdown drain.
func (r *Runtime) newTask(ctx context.Context, name string, cost float64, priority int, fn Body, plain func(), deps []Dep) *task {
	t := r.free.get()
	if t == nil {
		var ok bool
		t, ok = r.pool.Get().(*task)
		if !ok {
			t = &task{}
		}
	}
	seq := atomic.AddInt64(&r.seq, 1) - 1
	t.id = TaskID(seq)
	t.name = name
	t.cost = cost
	atomic.StoreInt64(&t.priority, int64(priority))
	t.fn = fn
	t.plainFn = plain
	t.ctx = ctx
	t.onDone = nil // recycled records must not inherit a hook
	t.retry = RetryPolicy{}
	t.deadline = 0
	t.attempt = 0
	t.skipCause = nil
	t.state = statePending
	t.home = -1
	// Atomic: a late scheduler push for the task that previously occupied
	// this pooled record can still read seq (see catsScheduler.insert); the
	// claim generation makes such an entry harmless, but the read itself
	// must not race with the reinitialising store — affinity and exec are
	// atomic for the same reason.
	atomic.StoreInt32(&t.affinity, -1)
	atomic.StoreInt32(&t.exec, -1)
	atomic.StoreInt64(&t.seq, seq)
	t.setDeps(deps)
	if priority > 0 {
		// Phase signal for the adaptive controller: the workload is using
		// priority hints, so criticality-first placement has traction.
		r.sig.critSubmit.Add(1)
	}
	atomic.AddInt64(&r.outstanding, 1)
	return t
}

// trackDeps runs the renamer for t: it resolves RAW/WAR/WAW hazards
// against the per-key tracking state, updates that state, and appends t to
// the shard task log. Predecessor references are collected into the log
// shard's predScratch — returned for linkPreds to consume while the shard
// is still locked. Every shard t's keys hash to (plus the log shard) must
// be locked by the caller.
func (r *Runtime) trackDeps(t *task) []taskRef {
	if len(t.deps()) == 0 {
		if r.opts.retainTrace {
			r.shards[t.logShard].tasks = append(r.shards[t.logShard].tasks, t)
		}
		return nil
	}
	// The log shard is deps[0].Key's shard, so it is always in the caller's
	// lock mask when deps exist — its scratch is exclusively ours here.
	ls := r.shards[t.logShard]
	preds := ls.predScratch[:0]
	addPred := func(p taskRef) {
		if p.t == nil || p.t == t {
			return
		}
		for _, q := range preds {
			// Same record is not enough: a pooled record may appear
			// once as a retired task and again as a live one, and
			// dropping the live reference would lose its edge.
			if q.t == p.t && claimGen(q.claim) == claimGen(p.claim) {
				return
			}
		}
		preds = append(preds, p)
	}
	self := t.ref()
	deps := t.deps()
	shards := t.depShards()
	for i, d := range deps {
		ks := r.shards[shards[i]].entry(d.Key)
		switch d.Mode {
		case ModeIn:
			addPred(ks.writer)
			ks.addReader(self)
		case ModeOut, ModeInOut:
			if d.Mode == ModeInOut {
				addPred(ks.writer)
			}
			// WAR: wait for every reader since the previous writer.
			for _, rd := range ks.readers {
				addPred(rd)
			}
			// WAW: wait for the previous writer even for plain Out, since
			// we do not rename storage.
			addPred(ks.writer)
			ks.writer = self
			// Zero the slots before truncating: readers[:0] alone keeps
			// every old reader task reachable through the backing array
			// until later readers happen to overwrite each slot.
			clear(ks.readers)
			ks.readers = ks.readers[:0]
		}
	}
	if r.opts.retainTrace {
		ls.tasks = append(ls.tasks, t)
	}
	ls.predScratch = preds // write back so the grown capacity is kept
	return preds
}

// linkPreds registers the dependence edges collected by trackDeps. npreds
// starts at 1 (the submission's own reference) so a predecessor completing
// concurrently with registration can never drive the counter to zero
// before every edge is in place; the caller's final decrement releases the
// reference and publishes the task.
//
// Each predecessor reference is generation-checked under the
// predecessor's mutex: a mismatch means the record was retired (its task
// completed) and possibly reused for an unrelated task, so the reference
// is dead and no other field of the record may be read — the generation
// bump happens inside complete's critical section, which makes this check
// exact, not best-effort.
func (r *Runtime) linkPreds(t *task, preds []taskRef) {
	atomic.StoreInt32(&t.npreds, 1)
	for _, ref := range preds {
		p := ref.t
		p.mu.Lock()
		if claimGen(atomic.LoadUint64(&p.claim)) != claimGen(ref.claim) {
			p.mu.Unlock() // recycled record: the predecessor completed long ago
			continue
		}
		// Data affinity: the worker that executed a predecessor plausibly
		// holds the task's input hot — remember the latest one seen (a
		// still-pending predecessor has no executor yet; the one finishing
		// last overwrites this in complete's release loop).
		if af := atomic.LoadInt32(&p.exec); af >= 0 {
			atomic.StoreInt32(&t.affinity, af)
		}
		if p.state != stateDone {
			p.addSucc(t)
			atomic.AddInt32(&t.npreds, 1)
			// CATS: a new successor raises the predecessor's bottom-level
			// estimate (single-step propagation, as the original heuristic).
			if est := atomic.LoadInt64(&t.priority) + 1; est > atomic.LoadInt64(&p.priority) {
				atomic.StoreInt64(&p.priority, est)
				// If p is already queued, tell a priority-aware scheduler so
				// it can reinsert p at the new estimate (the CATS heap's
				// stale-entry protocol).
				if p.state == stateReady {
					if b, ok := r.sched.(priorityBumper); ok {
						b.bump(p)
					}
				}
			}
		}
		p.mu.Unlock()
	}
	// Clear the scratch so completed predecessors are not pinned by the
	// shard (the capacity is kept for the next registration).
	for i := range preds {
		preds[i] = taskRef{}
	}
}

// setErr captures the first task failure.
func (r *Runtime) setErr(err error) {
	if err == nil {
		return
	}
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

// Err returns the first error any task body returned (or the cancellation
// error of the first skipped task), nil if everything succeeded so far.
func (r *Runtime) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

// completionScratch is a worker's reusable completion state: buffers for
// the captured successors and the newly-ready subset (living on the
// worker — not the task, not the heap per call — keeps the completion path
// allocation-free once they have grown to the workload's fan width), plus
// the worker's cached ownedPusher assertion for the wake-free
// single-successor hand-off.
type completionScratch struct {
	succs []*task
	ready []*task
	owned ownedPusher
	// Flight-recorder bookkeeping for the dispatch-event elision on the
	// chain hand-off (see the worker loop): the task last pushed through
	// pushOwned and its ID at push time. The ID disambiguates: task IDs are
	// never reused, so pointer+ID matching at the next pop proves the task
	// is still the very life this worker readied — a stolen-and-recycled
	// record fails the ID check and records its dispatch normally.
	lastOwned   *task
	lastOwnedID uint64
	// selfDispatch carries the elision fact from this worker's pop to its
	// complete(), which stamps it into the complete event.
	selfDispatch bool
}

// worker is the body of one pool goroutine.
func (r *Runtime) worker(id int) {
	defer r.wg.Done()
	where := Placement{
		Worker:    id,
		Class:     r.classOf[id],
		ClassName: r.classes[r.classOf[id]].Name,
		Speed:     r.classes[r.classOf[id]].Speed,
		Domain:    int(r.domainOf[id]),
	}
	// Placement wrappers are allocated per distinct submission context and
	// immutable afterwards, so task bodies see their placement through
	// their context (TaskPlacement) at zero per-task allocation in the
	// steady state, and any context a body retains (or derives and hands
	// to a child task) stays valid after the body returns. Submissions
	// made with one take the worker-local locality path (submitHint).
	//
	// bgWrap is the permanent wrapper for context.Background submissions
	// (most tasks); curCtx/curWrap cache the wrapper of the last other
	// submission context. The cache pins at most that one context per
	// worker, and is dropped as soon as a Background-context body runs;
	// curCtx only ever holds contexts of comparable dynamic type, so the
	// identity check below can never hit Go's uncomparable-type panic
	// (comparing against a context of a *different* type is always safe).
	bgWrap := &placementCtx{Context: context.Background(), rt: r, where: where}
	var curCtx context.Context
	var curWrap *placementCtx
	var sc completionScratch
	// A class-aware scheduler tracks which workers are running critical
	// work; it is told a dispatch ended before complete releases the
	// successors, so their placement decisions see fresh state.
	obs, _ := r.sched.(dispatchObserver)
	// A locality-capable scheduler takes the single-successor hand-off
	// without a wakeup — this goroutine is about to pop it anyway.
	sc.owned, _ = r.sched.(ownedPusher)
	for {
		t, stole := r.sched.pop(id)
		if t == nil {
			if atomic.LoadInt32(&r.shutdown) != 0 {
				return
			}
			continue
		}
		mySig := &r.sig.workers[id]
		if stole {
			atomic.AddUint64(&mySig.steals, 1)
		}
		// Locality signal: did the task run where its release aimed it?
		if home := t.home; home >= 0 {
			if int(home) == id {
				atomic.AddUint64(&mySig.homeHit, 1)
			} else {
				atomic.AddUint64(&mySig.homeMiss, 1)
			}
		}
		if r.rec != nil {
			if stole {
				r.rec.RecordWorker(id, flightrec.KindSteal, uint64(t.id), atomic.LoadUint64(&t.claim), 0)
			}
			// CATS records its own dispatch events inside pop (with the
			// class-gating evidence only the scheduler has); for the other
			// schedulers the worker records them here, strictly after the
			// pop's synchronises-with edge to the ready-side push.
			//
			// Exception: the chain hand-off. When this pop returns the very
			// task this worker just readied and pushed through pushOwned
			// (pointer AND id match — ids are never reused, so a stolen,
			// completed, recycled record cannot alias), the dispatch event is
			// elided: one thread marked it ready and claimed it with nothing
			// in between, so dispatched-was-ready holds by construction. The
			// complete event carries CompleteSelfDispatch so the verifier
			// knows the gap is deliberate.
			sc.selfDispatch = !stole && t == sc.lastOwned && uint64(t.id) == sc.lastOwnedID
			sc.lastOwned = nil
			if !r.schedSelfRecords && !sc.selfDispatch {
				arg2 := flightrec.PackDispatch(stole, false, 0, 0)
				if r.topoEvents {
					// Stamp the domain pair — where the task was released
					// toward vs where it runs — so the verifier can check the
					// domain-gating invariant against the parking timeline.
					homeDom := -1
					if t.home >= 0 {
						homeDom = int(r.domainOf[t.home])
					}
					arg2 = flightrec.PackDispatchDomains(arg2, homeDom, int(r.domainOf[id]))
				}
				r.rec.RecordWorker(id, flightrec.KindDispatch, uint64(t.id),
					atomic.LoadUint64(&t.claim), arg2)
			}
		}
		if r.domCounts != nil {
			d := int(r.domainOf[id])
			if stole {
				atomic.AddUint64(&r.domCounts[d].steals, 1)
			}
			if home := t.home; home >= 0 {
				if int(r.domainOf[home]) == d {
					atomic.AddUint64(&r.domCounts[d].local, 1)
				} else {
					atomic.AddUint64(&r.domCounts[d].cross, 1)
				}
			}
		}
		atomic.StoreInt32(&t.exec, int32(id))
		t.mu.Lock()
		t.state = stateRunning
		poison := t.skipCause
		t.mu.Unlock()
		var taskErr error
		// propagate is the poison handed to complete for the successors:
		// non-nil only for terminal panics and the skips they caused.
		var propagate error
		// faultPack, when non-zero, is the terminal fault complete must
		// record paired with the completion event (fault classes start at
		// 1, so zero always means "no fault").
		var faultPack uint64
		if poison != nil {
			// Poisoned: a predecessor terminally panicked, so this task's
			// inputs were never produced. Skip the body, fail the task with
			// a SkipError carrying the root cause, keep poisoning downstream.
			atomic.AddUint64(&mySig.skipped, 1)
			r.sig.quarantined.Add(1)
			taskErr = &SkipError{TaskName: t.name, Cause: poison}
			r.setErr(taskErr)
			propagate = poison
		} else if err := t.ctx.Err(); err != nil {
			// Cancelled before starting: skip the body, record why.
			atomic.AddUint64(&mySig.skipped, 1)
			r.setErr(err)
			taskErr = err
		} else {
			var pc context.Context
			if t.fn != nil {
				if t.attempt > 0 {
					// Retried attempts are rare and must surface their
					// attempt count through TaskPlacement: a fresh uncached
					// wrapper keeps the shared cached wrappers (and the
					// fault-free fast path's zero-allocation guarantee)
					// attempt-free.
					w := where
					w.Attempt = int(t.attempt)
					pc = &placementCtx{Context: t.ctx, rt: r, where: w}
				} else if t.ctx == context.Background() {
					pc = bgWrap
					// Release the cached request-scoped context: a worker
					// must not pin a dead request's values past the next
					// Background-context dispatch.
					curCtx, curWrap = nil, nil
				} else if curWrap != nil && t.ctx == curCtx {
					pc = curWrap // same submission scope as the last task
				} else {
					w := &placementCtx{Context: t.ctx, rt: r, where: where}
					pc = w
					if reflect.TypeOf(t.ctx).Comparable() {
						curCtx, curWrap = t.ctx, w
					} else {
						// Never cache a context of uncomparable dynamic
						// type: a later identity check against another
						// value of the same type would panic.
						curCtx, curWrap = nil, nil
					}
				}
			}
			var bodyErr error
			if t.deadline > 0 {
				bodyErr = r.runWithDeadline(t, pc)
			} else {
				bodyErr = execBody(t.name, t.fn, t.plainFn, pc)
			}
			if bodyErr != nil {
				switch bodyErr.(type) {
				case *PanicError:
					r.sig.panics.Add(1)
				case *DeadlineError:
					r.sig.deadlineMiss.Add(1)
				}
				if r.maybeRetry(t, id, bodyErr) {
					// Re-armed: the task stays outstanding and re-enters the
					// scheduler after its backoff. OnDone and complete wait
					// for the terminal attempt.
					continue
				}
			}
			atomic.AddUint64(&mySig.executed, 1)
			if bodyErr != nil {
				taskErr = bodyErr
				switch bodyErr.(type) {
				case *PanicError, *DeadlineError:
					// Already task-labelled by construction.
					r.setErr(bodyErr)
				default:
					r.setErr(fmt.Errorf("task %s: %w", t.name, bodyErr))
				}
				if pe, ok := bodyErr.(*PanicError); ok {
					// Terminal panic: quarantine the task and poison its
					// successors — a panicked producer's outputs don't exist,
					// so running consumers against them compounds the damage.
					r.sig.quarantined.Add(1)
					propagate = pe
				}
				// The fault event itself is recorded by complete, in one
				// paired ring write with the completion: the verifier's
				// FaultResolution window is measured in collector sweeps,
				// and any daylight between the two records (the OnDone hook
				// would otherwise run in it) reads as a lost recovery.
				faultPack = flightrec.PackFault(faultCode(bodyErr), int(t.attempt))
			}
		}
		// The per-task completion hook fires here — after the body (or the
		// skip decision) and before complete() can recycle the record — so
		// a service layer can account for every admitted task exactly once,
		// executed and skipped alike. It runs under panic isolation: a
		// panicking hook is the submitting layer's bug, but it must not take
		// the worker (and every tenant on the pool) down with it.
		if t.onDone != nil {
			r.callOnDone(t.onDone, taskErr, t.name)
		}
		if obs != nil {
			obs.taskDone(id)
		}
		r.complete(t, id, &sc, propagate, faultPack)
	}
}

// execBody invokes a task body under panic isolation: a panicking body is
// recovered into a typed *PanicError carrying the panic value and the
// goroutine stack, and the task fails like any error-returning body instead
// of unwinding the worker. The body's identity is passed as plain values —
// never the task record — so the deadline path can keep running an
// abandoned body after the record has been recycled.
func execBody(name string, fn Body, plain func(), pc context.Context) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{TaskName: name, Value: v, Stack: debug.Stack()}
		}
	}()
	if fn != nil {
		return fn(pc)
	}
	if plain != nil {
		plain()
	}
	return nil
}

// runWithDeadline runs the body under its per-task deadline without ever
// blocking the worker: the body runs on its own goroutine against a
// deadline-bounded context, and when the bound passes first the task fails
// with a *DeadlineError immediately. The overrunning body is abandoned —
// its goroutine holds only the body closure and context (never the task
// record, which complete may recycle at any moment after this returns) and
// is collected whenever the body honours the cancellation or returns.
func (r *Runtime) runWithDeadline(t *task, pc context.Context) error {
	base := pc
	if base == nil {
		base = t.ctx
	}
	dctx, cancel := context.WithTimeout(base, t.deadline)
	done := make(chan error, 1)
	name, fn, plain := t.name, t.fn, t.plainFn
	go func() {
		defer cancel()
		done <- execBody(name, fn, plain, dctx)
	}()
	// A cooperative body that observes the bound returns ctx.Err() through
	// done, racing the watchdog arm; normalise both paths to the same
	// verdict so classification never depends on which select arm wins.
	verdict := func(err error) error {
		if err != nil && errors.Is(err, context.DeadlineExceeded) && base.Err() == nil {
			return &DeadlineError{TaskName: name, Limit: t.deadline}
		}
		return err
	}
	select {
	case err := <-done:
		return verdict(err)
	case <-dctx.Done():
		select {
		case err := <-done:
			// The body beat the bound observation: take its verdict.
			return verdict(err)
		default:
		}
		if err := base.Err(); err != nil {
			// The submission context died, not the deadline: classify as a
			// plain cancellation, like the pre-start skip path would.
			return err
		}
		return &DeadlineError{TaskName: name, Limit: t.deadline}
	}
}

// faultCode maps a failed attempt's error to its flight-recorder fault
// class.
func faultCode(err error) int {
	switch err.(type) {
	case *PanicError:
		return flightrec.FaultPanic
	case *DeadlineError:
		return flightrec.FaultDeadline
	default:
		return flightrec.FaultError
	}
}

// maybeRetry decides whether a failed attempt re-enters the scheduler
// under the task's RetryPolicy. On re-arm it records the paired
// fault+retry events, bumps the attempt count, and schedules the ready
// transition after the capped exponential backoff; the task stays
// outstanding throughout (complete never ran), so Wait and Shutdown drain
// retries like any in-flight work. A cancelled submission context makes
// the failure terminal: retrying work nobody is waiting for wastes the
// pool.
func (r *Runtime) maybeRetry(t *task, workerID int, cause error) bool {
	if t.retry.Max <= 0 || int(t.attempt) >= t.retry.Max || t.ctx.Err() != nil {
		return false
	}
	t.attempt++
	n := int(t.attempt)
	r.sig.retries.Add(1)
	if r.rec != nil {
		claim := atomic.LoadUint64(&t.claim)
		r.rec.RecordWorker2(workerID,
			flightrec.KindFault, uint64(t.id), claim, flightrec.PackFault(faultCode(cause), n-1),
			flightrec.KindRetry, uint64(t.id), claim, flightrec.PackRetry(n, t.retry.Max))
	}
	if d := t.retry.delay(n); d > 0 {
		time.AfterFunc(d, func() { r.rearm(t) })
		return true
	}
	r.rearm(t)
	return true
}

// rearm returns a failed attempt's task to the scheduler. The record is
// still owned by the retry path — complete never ran, so the generation is
// unchanged and no reference was invalidated; a retried task can therefore
// never alias a recycled record. The ready transition mirrors submit's:
// the ready event is recorded BEFORE the claim stores, because clearing
// the dispatch-claim bit (set by a claiming scheduler like CATS at the
// failed dispatch) is what re-arms concurrent dispatch through stale heap
// entries — the stale entry and the fresh push then race on the same
// claim CAS, so at most one dispatches.
func (r *Runtime) rearm(t *task) {
	t.mu.Lock()
	t.state = stateReady
	t.home = -1
	rc := claimGen(atomic.LoadUint64(&t.claim)) << 1
	if r.rec != nil {
		r.rec.RecordExternal(flightrec.KindReady, uint64(t.id), rc, 0)
	}
	atomic.StoreUint64(&t.claim, rc)
	atomic.StoreUint64(&t.readyClaim, rc)
	t.mu.Unlock()
	r.sched.push(t, -1)
}

// callOnDone fires the per-task completion hook under panic isolation: a
// panicking hook must not take down the worker, so it is recovered,
// counted, and surfaced through Err like a body panic.
func (r *Runtime) callOnDone(hook func(error), taskErr error, name string) {
	defer func() {
		if v := recover(); v != nil {
			r.sig.panics.Add(1)
			r.setErr(&PanicError{TaskName: name, Value: v, Stack: debug.Stack()})
		}
	}()
	hook(taskErr)
}

// complete marks a task done, releases its successors, and drops the
// references the task no longer needs — the body closure (often the
// heaviest retained object) and the submission context. Without trace
// retention it goes further and retires the whole record into the
// runtime's freelist: the generation bump in the claim word (performed
// inside this critical section) atomically invalidates every reference
// that may still point here — tracker key entries and
// stale CATS heap entries — so the record can be reused by the next
// submission without those holders ever observing the new task's state.
//
// Newly-ready successors are released with the completing worker's
// identity: the scheduler's locality path pushes them onto this worker's
// own deque (LIFO, so the consumer reuses the producer's warm cache),
// spilling to the shared injector past the locality window.
//
// poison, when non-nil, is the root panic failure this task propagates:
// every successor is marked skipCause before its release, so it (and,
// transitively, its own successors) skips instead of running against
// inputs that were never produced.
//
// faultPack, when non-zero, is the terminal fault (PackFault word) this
// completion resolves; it is recorded in the same paired ring write as the
// completion event so the two can never be separated by a collector sweep.
func (r *Runtime) complete(t *task, workerID int, sc *completionScratch, poison error, faultPack uint64) {
	recycle := !r.opts.retainTrace
	succs := sc.succs[:0]
	// The complete event carries the pre-retirement claim word but is
	// recorded after this critical section, paired with the first released
	// successor's ready in one two-slot ring write (or standalone when
	// nothing becomes ready). Deferring it past the generation bump is safe
	// because task IDs are never reused: the record's next life gets a new
	// ID, so no consumer can mistake its events for this task's.
	completedID := uint64(t.id)
	completedClaim := atomic.LoadUint64(&t.claim)
	// If this task reached us through the elided chain hand-off, its
	// complete event must say so (see the worker loop's dispatch record).
	var completeFlags uint64
	if sc.selfDispatch {
		completeFlags = flightrec.CompleteSelfDispatch
	}
	t.mu.Lock()
	t.state = stateDone
	succs = t.takeSuccs(succs)
	t.fn = nil
	t.plainFn = nil
	t.ctx = nil
	t.onDone = nil
	t.skipCause = nil
	if recycle {
		t.name = ""
		t.clearDeps()
		// Retire the record: from here on every generation-tagged
		// reference to it is dead. This store must stay inside the t.mu
		// critical section — linkPreds validates generations under the
		// same mutex, so a reference holder either runs before this bump
		// (and sees state == stateDone) or after it (and sees the
		// mismatch without touching any other field).
		atomic.StoreUint64(&t.claim, (claimGen(atomic.LoadUint64(&t.claim))+1)<<1)
	}
	t.mu.Unlock()
	// Release successors in one scheduler call: a task that completes a
	// wide fan (the steal-heavy shape) hands the whole fan over with a
	// single wakeup instead of one signal per child.
	ready := sc.ready[:0]
	// firstID is the first released successor's ID, read inside its ready
	// critical section: once readyClaim is stored, a CATS priority bump
	// can dispatch, complete and recycle that record before this worker
	// pushes it, so its fields may not be read afterwards.
	var firstID uint64
	completeRecorded := r.rec == nil
	if !completeRecorded && faultPack != 0 {
		// A terminal fault rides one paired ring write with its completion
		// so no goroutine pause can open a gap between them: the verifier
		// expires an unresolved fault after one full collector sweep, and
		// the resolving event must be adjacent by construction (exactly as
		// maybeRetry pairs fault with retry).
		completeRecorded = true
		r.rec.RecordWorker2(workerID,
			flightrec.KindFault, completedID, completedClaim, faultPack,
			flightrec.KindComplete, completedID, completedClaim, completeFlags)
	}
	for _, s := range succs {
		if poison != nil {
			// Poison before the decrement: the final releaser (us or a
			// concurrent predecessor, whose decrement is ordered after ours)
			// publishes the store, and the dispatching worker reads it under
			// s.mu after the release — so a poisoned successor can never
			// observe a nil cause. First poison wins; one root is enough.
			s.mu.Lock()
			if s.skipCause == nil {
				s.skipCause = poison
			}
			s.mu.Unlock()
		}
		if atomic.AddInt32(&s.npreds, -1) == 0 {
			s.mu.Lock()
			s.state = stateReady
			// The completing worker is both the release target (home) and
			// the executor of the successor's latest-finishing predecessor
			// (affinity — the data is hot here).
			s.home = int32(workerID)
			atomic.StoreInt32(&s.affinity, int32(workerID))
			rc := atomic.LoadUint64(&s.claim)
			if r.rec != nil {
				// Record before the readyClaim store, as in submit: the
				// store arms concurrent dispatch through stale entries. The
				// first released successor's ready shares a paired ring
				// write with the completion event.
				if !completeRecorded {
					completeRecorded = true
					r.rec.RecordWorker2(workerID,
						flightrec.KindComplete, completedID, completedClaim, completeFlags,
						flightrec.KindReady, uint64(s.id), rc, 0)
				} else {
					r.rec.RecordWorker(workerID, flightrec.KindReady, uint64(s.id), rc, 0)
				}
			}
			if len(ready) == 0 {
				firstID = uint64(s.id)
			}
			atomic.StoreUint64(&s.readyClaim, rc)
			s.mu.Unlock()
			ready = append(ready, s)
		}
	}
	if !completeRecorded {
		r.rec.RecordWorker(workerID, flightrec.KindComplete, completedID, completedClaim, completeFlags)
	}
	switch len(ready) {
	case 0:
	case 1:
		// The chain hand-off: keep the lone successor to this worker
		// without a wakeup when the scheduler's locality path allows it —
		// this goroutine pops it next, and signalling a parked thief here
		// would only invite it to steal the link off the warm cache.
		s := ready[0]
		if sc.owned == nil || !sc.owned.pushOwned(s, workerID) {
			r.sched.push(s, workerID)
		} else if r.rec != nil && !r.schedSelfRecords {
			// Arm the dispatch-event elision: if our next pop returns this
			// very task life, its dispatch record is redundant.
			sc.lastOwned = s
			sc.lastOwnedID = firstID
		}
	default:
		r.sched.pushBatch(ready, workerID)
	}
	// Scrub the scratch so finished tasks are not pinned until the next
	// completion happens to overwrite the slots.
	for i := range succs {
		succs[i] = nil
	}
	sc.succs = succs[:0]
	for i := range ready {
		ready[i] = nil
	}
	sc.ready = ready[:0]
	// Retire the record BEFORE releasing the backpressure slot: the slot
	// send unblocks a waiting submitter, and if the record is not in the
	// freelist by the time that submitter reaches newTask, it allocates a
	// fresh one — a leak of exactly one record per race, which is where the
	// old steady-state benchmarks' residual bytes/op came from.
	if recycle && !r.free.put(t) {
		r.pool.Put(t)
	}
	if r.slots != nil {
		<-r.slots
	}
	if atomic.AddInt64(&r.outstanding, -1) == 0 {
		r.waitMu.Lock()
		r.waitCond.Broadcast()
		r.waitMu.Unlock()
	}
}

// Backlog reports the number of submitted tasks that have not yet
// finished — pending, queued, and running alike. It is a single atomic
// read, cheap enough for per-request admission decisions (the serve
// layer's controller polls it on every submit), where a full StatsInto
// snapshot would be disproportionate.
func (r *Runtime) Backlog() int64 {
	return atomic.LoadInt64(&r.outstanding)
}

// Wait blocks until every submitted task has finished (OmpSs taskwait).
func (r *Runtime) Wait() {
	r.waitMu.Lock()
	for atomic.LoadInt64(&r.outstanding) != 0 {
		r.waitCond.Wait()
	}
	r.waitMu.Unlock()
}

// WaitCtx is Wait with cancellation: it returns the first task error once
// everything submitted has finished, or ctx.Err() as soon as the context is
// done. Tasks already in flight keep their own submission contexts — cancel
// those to stop the work itself.
func (r *Runtime) WaitCtx(ctx context.Context) error {
	if ctx.Done() != nil {
		// Wake the condition-variable wait below when ctx fires.
		stop := context.AfterFunc(ctx, func() {
			r.waitMu.Lock()
			r.waitCond.Broadcast()
			r.waitMu.Unlock()
		})
		defer stop()
	}
	r.waitMu.Lock()
	for atomic.LoadInt64(&r.outstanding) != 0 && ctx.Err() == nil {
		r.waitCond.Wait()
	}
	r.waitMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.Err()
}

// Shutdown drains outstanding tasks and stops the workers. Submissions
// racing with or following Shutdown fail with ErrShutdown instead of
// enqueuing into a stopping pool (which would hang a later Wait). The
// runtime must not be used afterwards.
func (r *Runtime) Shutdown() {
	// closed is set under the gate's write side: a submission that already
	// passed the guard finishes registering (incrementing outstanding) and
	// releases its read lock before this lock is granted, so the Wait
	// below drains it; later submissions see closed and fail.
	r.gate.Lock()
	atomic.StoreInt32(&r.closed, 1)
	r.gate.Unlock()
	r.Wait()
	atomic.StoreInt32(&r.shutdown, 1)
	r.sched.wake()
	r.wg.Wait()
	if r.ctrl != nil {
		// Stop the controller after the workers: it may keep adapting while
		// the pool drains (that is the point), but must not race the
		// recorder's Close below.
		r.ctrl.halt()
	}
	if r.rec != nil {
		// Stop the recorder's clock; the rings stay readable for post-run
		// snapshots (Tail, the bench tool's -flight-dump).
		r.rec.Close()
	}
}

// Stats returns a snapshot of execution counters. Each call allocates
// fresh PerWorker/PerClass slices; reporting loops that poll repeatedly
// should use StatsInto with a reused buffer instead.
func (r *Runtime) Stats() Stats {
	var s Stats
	r.StatsInto(&s)
	return s
}

// StatsInto fills s with a snapshot of the execution counters, reusing the
// capacity of s.PerWorker and s.PerClass when they are large enough — the
// allocation-free variant of Stats for hot reporting loops (periodic
// metrics exporters, per-round experiment sampling). The snapshot is one
// signals-layer epoch sample: the per-worker and per-class aggregation is
// done once into the runtime's reusable sample and copied out, rather
// than recomputed from scattered fields.
func (r *Runtime) StatsInto(s *Stats) {
	r.sampleMu.Lock()
	defer r.sampleMu.Unlock()
	smp := &r.sample
	r.sampleSignals(smp)
	s.Submitted = smp.Submitted
	s.Executed = smp.Executed
	s.Steals = smp.Steals
	s.Skipped = smp.Skipped
	s.Panics = r.sig.panics.Load()
	s.Retries = r.sig.retries.Load()
	s.DeadlineMisses = r.sig.deadlineMiss.Load()
	s.Quarantined = r.sig.quarantined.Load()
	s.TrackedKeys = 0
	for _, sh := range r.shards {
		s.TrackedKeys += uint64(sh.tracked.Load())
	}
	s.FlightEvents = 0
	if r.rec != nil {
		s.FlightEvents = r.rec.EventCount()
	}
	s.Adaptive = AdaptiveStats{
		Window:        r.pol.window.Load(),
		RefillChunk:   r.pol.refillChunk.Load(),
		CritFirst:     r.pol.critFirst.Load() != 0,
		ActiveClasses: r.pol.classMask.Load(),
	}
	if r.ctrl != nil {
		r.ctrl.statsInto(&s.Adaptive)
	}
	if cap(s.PerWorker) < len(smp.PerWorker) {
		s.PerWorker = make([]uint64, len(smp.PerWorker))
	}
	s.PerWorker = s.PerWorker[:len(smp.PerWorker)]
	copy(s.PerWorker, smp.PerWorker)
	if cap(s.PerClass) < len(smp.PerClass) {
		s.PerClass = make([]uint64, len(smp.PerClass))
	}
	s.PerClass = s.PerClass[:len(smp.PerClass)]
	copy(s.PerClass, smp.PerClass)
	if cap(s.PerDomain) < len(r.domains) {
		s.PerDomain = make([]DomainStats, len(r.domains))
	}
	s.PerDomain = s.PerDomain[:len(r.domains)]
	for i := range s.PerDomain {
		s.PerDomain[i] = DomainStats{Workers: r.domains[i].Count}
	}
	for w := range smp.PerWorker {
		s.PerDomain[r.domainOf[w]].Dispatched += smp.PerWorker[w]
	}
	if r.domCounts != nil {
		for i := range s.PerDomain {
			s.PerDomain[i].LocalDispatched = atomic.LoadUint64(&r.domCounts[i].local)
			s.PerDomain[i].CrossDispatched = atomic.LoadUint64(&r.domCounts[i].cross)
			s.PerDomain[i].Steals = atomic.LoadUint64(&r.domCounts[i].steals)
		}
	} else {
		// Single domain: every dispatch is local by definition, and the
		// global steal counter is the domain's.
		s.PerDomain[0].LocalDispatched = s.PerDomain[0].Dispatched
		s.PerDomain[0].Steals = s.Steals
	}
	if dss, ok := r.sched.(domainStatsSource); ok {
		dss.domainStatsInto(s.PerDomain)
	}
}

// Graph exports the dependence graph of everything submitted so far as a
// tdg.Graph (task costs carried over), for criticality analysis or for
// replay on the simulated machine. Call after Wait for a complete graph.
//
// Graph requires the runtime to have been built with WithTraceRetention —
// the trace of completed tasks is otherwise released as tasks finish, and
// Graph fails with ErrNoTrace. With retention on, the export replays the
// dependence log in task-ID order — for tasks submitted from a single
// goroutine that is exactly the live tracking order; for concurrent
// submitters it is one valid serialisation of the program order (ID
// allocation and shard registration may interleave differently, but any
// total order yields an acyclic graph with the same per-key hazard
// structure).
func (r *Runtime) Graph() (*tdg.Graph, error) {
	if !r.opts.retainTrace {
		return nil, ErrNoTrace
	}
	// Holding every shard lock excludes in-flight registrations, so the
	// collected log slabs are mutually consistent.
	all := uint64(1)<<len(r.shards) - 1
	r.lockShards(all)
	var tasks []*task
	for _, s := range r.shards {
		tasks = append(tasks, s.tasks...)
	}
	r.unlockShards(all)
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].seq < tasks[j].seq })

	// succs lists are consumed on completion, so rebuild edges from the
	// dependence log with a shadow tracking pass through a tdg.Builder.
	// IDs are remapped (rather than assumed dense) so a snapshot taken
	// while submissions are in flight still exports the registered subset.
	b := tdg.NewBuilder()
	node := make(map[TaskID]tdg.NodeID, len(tasks))
	for _, t := range tasks {
		node[t.id] = b.AddNode(t.name, t.cost)
	}
	shadowWriter := make(map[any]tdg.NodeID)
	shadowReaders := make(map[any][]tdg.NodeID)
	for _, t := range tasks {
		id := node[t.id]
		for _, d := range t.deps() {
			switch d.Mode {
			case ModeIn:
				if w, ok := shadowWriter[d.Key]; ok {
					b.AddEdge(w, id)
				}
				shadowReaders[d.Key] = append(shadowReaders[d.Key], id)
			case ModeOut, ModeInOut:
				if w, ok := shadowWriter[d.Key]; ok {
					b.AddEdge(w, id)
				}
				for _, rd := range shadowReaders[d.Key] {
					b.AddEdge(rd, id)
				}
				shadowWriter[d.Key] = id
				shadowReaders[d.Key] = shadowReaders[d.Key][:0]
			}
		}
	}
	return b.Graph(), nil
}
