package runtime

import (
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
)

// shardLogLen sums the task-log length over all shards.
func shardLogLen(r *Runtime) int {
	all := uint64(1)<<len(r.shards) - 1
	r.lockShards(all)
	defer r.unlockShards(all)
	n := 0
	for _, s := range r.shards {
		n += len(s.tasks)
	}
	return n
}

// submitRounds drives rounds of mixed-dependence submissions, each followed
// by a Wait — the long-lived-service usage pattern.
func submitRounds(t *testing.T, r *Runtime, rounds, perRound int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			key := i % 8
			var deps []Dep
			switch i % 3 {
			case 0:
				deps = []Dep{In(key)}
			case 1:
				deps = []Dep{Out(key)}
			default:
				deps = []Dep{InOut(key), In((key + 1) % 8)}
			}
			if _, err := r.Submit("t", 1, func() {}, deps...); err != nil {
				t.Fatal(err)
			}
		}
		r.Wait()
	}
}

// Without WithTraceRetention the shard task logs must stay empty however
// long the runtime lives: every completed task is released rather than
// pinned by the introspection layer.
func TestShardLogsStayEmptyWithoutRetention(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		r := New(WithWorkers(4), WithScheduler(kind))
		defer r.Shutdown()
		submitRounds(t, r, 5, 300)
		if n := shardLogLen(r); n != 0 {
			t.Fatalf("shard task logs hold %d tasks without trace retention", n)
		}
		if _, err := r.Graph(); !errors.Is(err, ErrNoTrace) {
			t.Fatalf("Graph without retention = %v, want ErrNoTrace", err)
		}
	})
}

// With WithTraceRetention the log keeps everything and Graph exports it —
// the pre-existing behaviour, now opt-in.
func TestTraceRetentionKeepsFullLog(t *testing.T) {
	r := New(WithWorkers(4), WithTraceRetention())
	defer r.Shutdown()
	const rounds, perRound = 3, 200
	submitRounds(t, r, rounds, perRound)
	if n := shardLogLen(r); n != rounds*perRound {
		t.Fatalf("retained log holds %d tasks, want %d", n, rounds*perRound)
	}
	g, err := r.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != rounds*perRound {
		t.Fatalf("graph has %d nodes, want %d", g.Len(), rounds*perRound)
	}
}

// complete must drop the references a finished task no longer needs, even
// when the task record itself is retained for the trace.
func TestCompleteReleasesTaskReferences(t *testing.T) {
	r := New(WithWorkers(2), WithTraceRetention())
	defer r.Shutdown()
	r.Submit("a", 1, func() {}, Out("k"))
	r.Submit("b", 1, func() {}, In("k"))
	r.Wait()
	all := uint64(1)<<len(r.shards) - 1
	r.lockShards(all)
	defer r.unlockShards(all)
	seen := 0
	for _, s := range r.shards {
		for _, tk := range s.tasks {
			seen++
			tk.mu.Lock()
			if tk.fn != nil || tk.plainFn != nil {
				t.Errorf("task %q keeps its body after completion", tk.name)
			}
			if tk.ctx != nil {
				t.Errorf("task %q keeps its context after completion", tk.name)
			}
			if tk.nsuccs != 0 || len(tk.succsOvf) != 0 {
				t.Errorf("task %q keeps successors after completion", tk.name)
			}
			for _, s := range tk.succsInl {
				if s != nil {
					t.Errorf("task %q keeps an inline successor slot after completion", tk.name)
				}
			}
			if len(tk.deps()) == 0 {
				t.Errorf("task %q lost its dependence log despite retention", tk.name)
			}
			tk.mu.Unlock()
		}
	}
	if seen != 2 {
		t.Fatalf("log holds %d tasks, want 2", seen)
	}
}

// A writer truncating a key's reader list must nil the slots: readers[:0]
// alone keeps the old reader tasks reachable through the backing array.
// The readers block until the writer has registered, so none retires early
// and the list really reaches its full width before the truncation.
func TestReadersTailSlotsClearedOnWriterTruncate(t *testing.T) {
	r := New(WithWorkers(2), WithShards(1))
	defer r.Shutdown()
	const readers = 6
	release := make(chan struct{})
	for i := 0; i < readers; i++ {
		r.Submit("r", 1, func() { <-release }, In("k"))
	}
	s := r.shards[0]
	s.mu.Lock()
	width := cap(s.keys["k"].readers)
	s.mu.Unlock()
	r.Submit("w", 1, func() {}, Out("k"))
	close(release)
	r.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	ks := s.keys["k"]
	if len(ks.readers) != 0 {
		t.Fatalf("reader list length %d after writer, want 0", len(ks.readers))
	}
	for i, tk := range ks.readers[:cap(ks.readers)] {
		if tk.t != nil {
			t.Fatalf("reader backing slot %d still pins reader task %d", i, tk.t.id)
		}
	}
	if width < readers || cap(ks.readers) < readers {
		t.Fatalf("test did not exercise the backing array (cap %d before, %d after, %d readers)",
			width, cap(ks.readers), readers)
	}
}

// End-to-end collectability: the payloads captured by task bodies must be
// garbage once the tasks complete — nothing in the scheduler queues, shard
// state, or task structs may pin them (default, no trace retention).
func TestTaskPayloadsCollectableAfterComplete(t *testing.T) {
	eachScheduler(t, func(t *testing.T, kind SchedulerKind) {
		const n = 100
		r := New(WithWorkers(2), WithScheduler(kind))
		defer r.Shutdown()
		var finalized int32
		submitWithPayloads(t, r, n, &finalized)
		r.Wait()
		deadline := time.Now().Add(20 * time.Second)
		for atomic.LoadInt32(&finalized) < n && time.Now().Before(deadline) {
			stdruntime.GC()
			time.Sleep(5 * time.Millisecond)
		}
		if got := atomic.LoadInt32(&finalized); got != n {
			t.Fatalf("%d/%d task payloads still uncollectable after completion", n-got, n)
		}
	})
}

// submitWithPayloads lives in its own frame so no payload stays reachable
// from the test function's stack.
func submitWithPayloads(t *testing.T, r *Runtime, n int, finalized *int32) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := new([1 << 12]byte)
		stdruntime.SetFinalizer(p, func(*[1 << 12]byte) { atomic.AddInt32(finalized, 1) })
		if _, err := r.Submit(fmt.Sprintf("t%d", i), 1, func() { p[0]++ }); err != nil {
			t.Fatal(err)
		}
	}
}
