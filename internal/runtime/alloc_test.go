package runtime

import (
	"fmt"
	"runtime/debug"
	"testing"
)

// The hot-path budgets the tests below enforce. Submit must be
// allocation-free in steady state (the headline zero-alloc claim);
// SubmitBatch is allowed exactly the allocations its API requires — the
// returned ID slice plus one internal scratch — independent of batch size.
const (
	submitAllocBudget = 0.01 // amortized allocs per Submit→execute→complete
	batchAllocBudget  = 3    // allocs per SubmitBatch call, any batch size
)

// withGCOff disables the garbage collector for the duration of fn so
// AllocsPerRun measurements are not perturbed by a GC emptying the task
// freelist mid-run (sync.Pool contents are collectable by design).
func withGCOff(fn func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
}

// skipUnderRace skips allocation-budget tests in -race builds: the race
// detector's sync.Pool instrumentation drops pooled items on purpose, so
// the freelist cannot reach its allocation-free steady state there.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector (sync.Pool drops items)")
	}
}

// Steady state, retention off, deps ≤ inlineArity: the full
// submit→execute→complete lifecycle must run without heap allocation —
// records come from the freelist, dependences and successors stay in the
// inline arrays, the placement context is the worker's reused wrapper, and
// complete recycles everything it took.
func TestSubmitPathAllocationFree(t *testing.T) {
	skipUnderRace(t)
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		withGCOff(func() {
			r := New(WithWorkers(2), WithScheduler(kind))
			defer r.Shutdown()
			noop := func() {}
			// A chain (worst-case tracker pressure), a read fan, and a
			// 4-dep mixed shape — all within the inline arity.
			chain := []Dep{InOut("chain")}
			read := []Dep{In("chain")}
			// All-writer keys so every entry's reader list stays short.
			mixed := []Dep{InOut("chain"), InOut("a"), InOut("b"), Out("c")}
			submitAll := func() {
				for i := 0; i < 8; i++ {
					if _, err := r.Submit("t", 1, noop, chain...); err != nil {
						t.Fatal(err)
					}
					if _, err := r.Submit("t", 1, noop, read...); err != nil {
						t.Fatal(err)
					}
					if _, err := r.Submit("t", 1, noop, mixed...); err != nil {
						t.Fatal(err)
					}
				}
				r.Wait()
			}
			// Warm the freelist, the per-key tracker state, and the worker
			// scratch buffers to their steady-state capacities.
			for i := 0; i < 32; i++ {
				submitAll()
			}
			const perRun = 24 // tasks per AllocsPerRun invocation
			avg := testing.AllocsPerRun(100, submitAll)
			if per := avg / perRun; per > submitAllocBudget {
				t.Fatalf("%v: %.3f allocs per submitted task in steady state, budget %v (avg %.1f per run of %d)",
					kind, per, submitAllocBudget, avg, perRun)
			}
		})
	})
}

// SubmitBatch must stay within its fixed per-call budget regardless of the
// batch width: the returned IDs and one task scratch, nothing per task.
func TestSubmitBatchAllocBudget(t *testing.T) {
	skipUnderRace(t)
	withGCOff(func() {
		r := New(WithWorkers(2))
		defer r.Shutdown()
		const width = 32
		specs := make([]TaskSpec, width)
		noop := func() {}
		for i := range specs {
			specs[i] = TaskSpec{Name: "b", Cost: 1, Fn: noop, Deps: []Dep{InOut(i % 4)}}
		}
		run := func() {
			if _, err := r.SubmitBatch(specs); err != nil {
				t.Fatal(err)
			}
			r.Wait()
		}
		for i := 0; i < 32; i++ {
			run() // warm freelist and tracker
		}
		avg := testing.AllocsPerRun(100, run)
		if avg > batchAllocBudget {
			t.Fatalf("%.1f allocs per %d-task SubmitBatch, budget %d", avg, width, batchAllocBudget)
		}
	})
}

// Recycled records must never alias task identities: IDs come from the
// monotone sequence allocator, not the freelist, so however often records
// are reused every submission observes a fresh, unique ID.
func TestRecycledRecordsGetFreshIDs(t *testing.T) {
	r := New(WithWorkers(2))
	defer r.Shutdown()
	seen := make(map[TaskID]bool)
	for round := 0; round < 40; round++ {
		for i := 0; i < 25; i++ {
			id, err := r.Submit("t", 1, func() {}, InOut(i%4))
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("round %d: task ID %d reissued after record recycling", round, id)
			}
			seen[id] = true
		}
		r.Wait() // drain so the next round runs on recycled records
	}
}

// With retention on, records are never recycled and Graph must export the
// exact per-key hazard structure across many submit→Wait rounds — the
// pooling changes must not leak into the retained-trace world.
func TestGraphCorrectWithRetentionAcrossRounds(t *testing.T) {
	r := New(WithWorkers(4), WithTraceRetention())
	defer r.Shutdown()
	const rounds, chainLen = 5, 30
	for round := 0; round < rounds; round++ {
		for i := 0; i < chainLen; i++ {
			if _, err := r.Submit(fmt.Sprintf("c%d", i), 1, func() {}, InOut("k")); err != nil {
				t.Fatal(err)
			}
		}
		r.Wait()
	}
	g, err := r.Graph()
	if err != nil {
		t.Fatal(err)
	}
	n := rounds * chainLen
	if g.Len() != n {
		t.Fatalf("graph has %d nodes, want %d", g.Len(), n)
	}
	// A single inout chain: node i depends on exactly node i-1.
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("topo order covers %d nodes, want %d", len(order), n)
	}
	edges := 0
	for _, node := range g.Nodes() {
		edges += len(node.Succs())
	}
	if edges != n-1 {
		t.Fatalf("chain graph has %d edges, want %d", edges, n-1)
	}
}
