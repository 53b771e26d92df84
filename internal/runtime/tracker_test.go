package runtime

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// structKey mirrors the shape of a service's namespaced key: a struct the
// integer fast paths do not cover.
type structKey struct {
	job  uint64
	name string
}

// blankKey has a blank field, which struct equality ignores.
type blankKey struct {
	_ int64
	a int
}

// Equal keys must land on the same shard whatever their kind, including
// the equalities that differ bit for bit: ±0 floats, structs built from
// separately allocated strings, and structs whose blank fields differ.
func TestShardIndexEqualKeysSameShard(t *testing.T) {
	r := New(WithWorkers(1), WithShards(maxShards))
	defer r.Shutdown()
	negZero := math.Copysign(0, -1)
	x, y := new(int), new(int)
	ch := make(chan int)
	b1 := blankKey{a: 3}
	b2 := b1
	*(*int64)(unsafe.Pointer(&b2)) = 42 // the blank field, unreachable by name
	dyn := func(s string) string { return string(append([]byte(nil), s...)) }
	pairs := []struct{ a, b any }{
		{0.0, negZero},
		{float32(0), float32(negZero)},
		{complex(0, 0), complex(negZero, negZero)},
		{structKey{7, "lu"}, structKey{7, dyn("lu")}},
		{[3]string{"a", "b", "c"}, [3]string{"a", dyn("b"), "c"}},
		{x, x},
		{ch, ch},
		{struct{ k any }{structKey{1, "a"}}, struct{ k any }{structKey{1, dyn("a")}}},
		{struct{ k any }{}, struct{ k any }{}},
		{struct {
			f float64
			p *int
		}{0, y}, struct {
			f float64
			p *int
		}{negZero, y}},
		{b1, b2},
		{nil, nil},
		{true, true},
	}
	for i, p := range pairs {
		if p.a != p.b {
			t.Fatalf("pair %d: test keys are not equal under ==", i)
		}
		if ia, ib := r.shardIndex(p.a), r.shardIndex(p.b); ia != ib {
			t.Errorf("pair %d (%T): equal keys on shards %d and %d", i, p.a, ia, ib)
		}
	}
	// Distinct struct keys must spread, not pile onto one shard.
	hit := make(map[int]bool)
	for j := uint64(0); j < 1024; j++ {
		hit[r.shardIndex(structKey{j, "t"})] = true
	}
	if len(hit) < maxShards/2 {
		t.Errorf("1024 struct keys reached only %d of %d shards", len(hit), maxShards)
	}
}

// Struct keys hash without fmt: a steady-state submit stream over
// pre-boxed struct keys on a multi-shard pool performs no allocation.
func TestSubmitStructKeysAllocationFree(t *testing.T) {
	skipUnderRace(t)
	withGCOff(func() {
		r := New(WithWorkers(2), WithShards(4))
		defer r.Shutdown()
		noop := func() {}
		var deps [][]Dep
		for j := uint64(0); j < 8; j++ {
			a, b := any(structKey{j, "a"}), any(structKey{j, "b"})
			deps = append(deps, []Dep{InOut(a)}, []Dep{In(a), Out(b)}, []Dep{In(b)})
		}
		submitAll := func() {
			for _, d := range deps {
				if _, err := r.Submit("t", 1, noop, d...); err != nil {
					t.Fatal(err)
				}
			}
			r.Wait()
		}
		for i := 0; i < 32; i++ {
			submitAll()
		}
		avg := testing.AllocsPerRun(100, submitAll)
		if per := avg / float64(len(deps)); per > submitAllocBudget {
			t.Fatalf("%.3f allocs per struct-key submit in steady state, budget %v", per, submitAllocBudget)
		}
	})
}

// A stream of tasks on fresh keys keeps the tracker bounded by the keys in
// flight (at most twice those, plus the sweep floor per shard) while every
// key still sees its accesses in submission order. Each key gets a
// writer, two readers and a read-modify-write; the values each task reads
// and the final value per key are checked against a serial execution.
func TestTrackerBoundedOnFreshKeys(t *testing.T) {
	const (
		tasks  = 100_000
		perKey = 4
		keys   = tasks / perKey
		bound  = 256
		shards = 4
	)
	r := New(WithWorkers(4), WithShards(shards), WithQueueBound(bound))
	defer r.Shutdown()
	vals := make([]int64, keys)
	reads := make([]int64, tasks)
	var st Stats
	var peak uint64
	for i := 0; i < tasks; i++ {
		i, k := i, i/perKey
		var err error
		switch i % perKey {
		case 0:
			_, err = r.Submit("w", 1, func() { vals[k] = int64(i) }, Out(k))
		case 1, 2:
			_, err = r.Submit("r", 1, func() { reads[i] = vals[k] }, In(k))
		case 3:
			_, err = r.Submit("rw", 1, func() { vals[k] = vals[k]*31 + int64(i) }, InOut(k))
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			r.StatsInto(&st)
			peak = max(peak, st.TrackedKeys)
		}
	}
	r.Wait()
	r.StatsInto(&st)
	peak = max(peak, st.TrackedKeys)
	if limit := uint64(2*bound + shards*keyFloor); peak > limit {
		t.Errorf("tracker peaked at %d keys, want ≤ %d (2×%d in flight + %d floor × %d shards)",
			peak, limit, bound, keyFloor, shards)
	}
	if st.TrackedKeys >= keys {
		t.Errorf("tracker holds %d of %d keys after the stream: nothing was retired", st.TrackedKeys, keys)
	}
	for i, s := range r.shards {
		s.mu.Lock()
		spare, keep := len(s.spare), s.sweepAt-len(s.keys)
		s.mu.Unlock()
		if spare > keep {
			t.Errorf("shard %d keeps %d spare entries, more than the %d inserts before its next sweep", i, spare, keep)
		}
	}
	for k := 0; k < keys; k++ {
		w := int64(k * perKey)
		for _, i := range []int64{w + 1, w + 2} {
			if reads[i] != w {
				t.Fatalf("key %d: reader %d saw %d, serial order gives %d", k, i, reads[i], w)
			}
		}
		if want := w*31 + w + 3; vals[k] != want {
			t.Fatalf("key %d: final value %d, serial order gives %d", k, vals[k], want)
		}
	}
}

// A key that is read forever and never written keeps only its live
// readers: a full reader list compacts out retired readers before it
// grows, so its capacity stays bounded by the tasks in flight.
func TestReadOnlyKeyStaysBounded(t *testing.T) {
	const bound = 64
	r := New(WithWorkers(2), WithShards(1), WithQueueBound(bound))
	defer r.Shutdown()
	noop := func() {}
	for i := 0; i < 50_000; i++ {
		if _, err := r.Submit("r", 1, noop, In("config")); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
	s := r.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	// Compaction doubles the list only when over half of it is live, so
	// at most bound+1 readers (the queue bound plus the one being added)
	// ever force growth.
	if c := cap(s.keys["config"].readers); c > 4*bound {
		t.Fatalf("read-only key's reader list grew to capacity %d, want ≤ %d", c, 4*bound)
	}
}

// A key whose entry was swept behaves exactly like a key never seen: an
// In has nothing to wait for, and a later writer/reader pair orders
// normally.
func TestRetiredKeyBehavesFresh(t *testing.T) {
	r := New(WithWorkers(2), WithShards(1))
	defer r.Shutdown()
	noop := func() {}
	r.Submit("w0", 1, noop, Out("k"))
	r.Wait()
	// Enough fresh keys to cross the floor: the insert that reaches it
	// sweeps, and "k" — whose only task has retired — goes.
	for i := 0; i <= keyFloor; i++ {
		r.Submit("f", 1, noop, Out(i))
	}
	r.Wait()
	for i := keyFloor + 1; i <= keyFloor+4; i++ {
		r.Submit("f", 1, noop, Out(i)) // inserts after the drain sweep once more
	}
	r.Wait()
	s := r.shards[0]
	s.mu.Lock()
	_, tracked := s.keys["k"]
	s.mu.Unlock()
	if tracked {
		t.Fatal(`retired key "k" still has a tracker entry after crossing the sweep floor`)
	}
	r.Submit("r0", 1, noop, In("k"))
	r.Wait() // a fresh key's reader has nothing to wait for
	release := make(chan struct{})
	var wrote atomic.Bool
	r.Submit("w1", 1, func() { <-release; wrote.Store(true) }, Out("k"))
	var sawWrite atomic.Bool
	r.Submit("r1", 1, func() { sawWrite.Store(wrote.Load()) }, In("k"))
	close(release)
	r.Wait()
	if !sawWrite.Load() {
		t.Fatal("reader of a re-used key ran before its writer")
	}
}

// After a burst of live keys has passed, the spare list a later sweep
// fills is trimmed to what inserts can take before the next sweep, so the
// burst's entries do not stay pooled forever.
func TestSpareListTrimmedAfterBurst(t *testing.T) {
	const burst = 3 * keyFloor
	r := New(WithWorkers(2), WithShards(1))
	defer r.Shutdown()
	noop := func() {}
	release := make(chan struct{})
	r.Submit("gate", 1, func() { <-release }, Out("gate"))
	for i := 0; i < burst; i++ {
		r.Submit("b", 1, noop, In("gate"), Out(i)) // live until the gate opens
	}
	close(release)
	r.Wait()
	// Fresh keys until the threshold the burst left is crossed: that sweep
	// retires the whole burst at once.
	for i := burst; i < 3*burst; i++ {
		r.Submit("f", 1, noop, Out(i))
		r.Wait()
	}
	s := r.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	if keep := s.sweepAt - len(s.keys); len(s.spare) > keep {
		t.Fatalf("%d spare entries after the burst, want ≤ %d (inserts before the next sweep)", len(s.spare), keep)
	}
	if len(s.spare) > keyFloor {
		t.Fatalf("%d spare entries after the burst, want ≤ %d", len(s.spare), keyFloor)
	}
}

// A key unequal to itself (NaN, or a struct holding one) can never be
// found again, so it gets no tracker entry: it orders against nothing,
// leaves TrackedKeys at zero, and — across sweeps — never lets two
// unrelated keys share an entry.
func TestUnequalKeyGetsNoEntry(t *testing.T) {
	r := New(WithWorkers(2), WithShards(1))
	defer r.Shutdown()
	noop := func() {}
	nan := math.NaN()
	release := make(chan struct{})
	r.Submit("w", 1, func() { <-release }, Out(nan))
	done := make(chan struct{})
	r.Submit("r", 1, func() { close(done) }, In(nan), InOut(structKey{1, "a"}))
	select {
	case <-done: // NaN != NaN: the reader does not wait for the writer
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("a NaN-keyed reader waited on a NaN-keyed writer")
	}
	close(release)
	for i := 0; i < 3*keyFloor; i++ {
		r.Submit("f", 1, noop, Out(struct{ f float64 }{nan}), Out(i))
	}
	r.Wait()
	s := r.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	for key := range s.keys {
		if key != key {
			t.Fatalf("tracker inserted an entry for the unequal key %v", key)
		}
	}
	seen := make(map[*keyState]bool)
	for _, ks := range s.keys {
		seen[ks] = true
	}
	for _, ks := range s.spare {
		if seen[ks] {
			t.Fatal("an entry is both tracked and spare")
		}
		seen[ks] = true
	}
}

// A key's entry can reference one pooled record twice: as its retired
// writer and, after the record was reused, as a live reader. An InOut
// registered next meets the dead reference first and must still wait for
// the live one.
func TestRecycledRecordKeepsLiveEdge(t *testing.T) {
	r := New(WithWorkers(2), WithShards(1))
	defer r.Shutdown()
	r.Submit("w", 1, func() {}, Out("k"))
	r.Wait() // the writer's record is now the only one in the freelist
	release := make(chan struct{})
	var readDone atomic.Bool
	r.Submit("r", 1, func() { <-release; readDone.Store(true) }, In("k"))
	wrote := make(chan bool, 1)
	r.Submit("rw", 1, func() { wrote <- readDone.Load() }, InOut("k"))
	select {
	case <-wrote:
		close(release)
		t.Fatal("InOut ran before a live reader on a reused record")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if !<-wrote {
		t.Fatal("InOut did not observe the reader's completion")
	}
	r.Wait()
}

// A sweep keeps an entry while any task it references is live: here the
// key's writer has retired but a reader is still running, and a writer
// registered after the sweep must still wait for that reader (WAR).
func TestSweepKeepsKeysWithLiveReaders(t *testing.T) {
	r := New(WithWorkers(2), WithShards(1))
	defer r.Shutdown()
	noop := func() {}
	r.Submit("w0", 1, noop, Out("k"))
	r.Wait()
	release := make(chan struct{})
	var readDone atomic.Bool
	r.Submit("r", 1, func() { <-release; readDone.Store(true) }, In("k"))
	// keyFloor more keys: the last insert finds the shard at the floor
	// and sweeps while the reader is still blocked.
	for i := 0; i < keyFloor; i++ {
		r.Submit("f", 1, noop, Out(i))
	}
	wrote := make(chan bool, 1)
	r.Submit("w1", 1, func() { wrote <- readDone.Load() }, Out("k"))
	// Correct ordering holds w1 until the reader is released, so give a
	// wrongly released w1 time to run before releasing the reader.
	select {
	case <-wrote:
		close(release) // let Shutdown drain the reader
		t.Fatal("writer registered after a sweep ran before a live reader of its key")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if !<-wrote {
		t.Fatal("writer registered after a sweep did not observe the reader's completion")
	}
	r.Wait()
}

// Under WithTraceRetention records are never recycled, so no entry is
// ever dead: the tracker keeps every key, and Graph exports every edge.
func TestTraceRetentionRetiresNothing(t *testing.T) {
	const pairs = 3 * keyFloor
	r := New(WithWorkers(2), WithShards(2), WithTraceRetention())
	defer r.Shutdown()
	noop := func() {}
	for k := 0; k < pairs; k++ {
		r.Submit("w", 1, noop, Out(k))
		r.Submit("r", 1, noop, In(k))
	}
	r.Wait()
	if got := r.Stats().TrackedKeys; got != pairs {
		t.Fatalf("TrackedKeys = %d under retention, want every key (%d)", got, pairs)
	}
	g, err := r.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2*pairs {
		t.Fatalf("graph has %d nodes, want %d", g.Len(), 2*pairs)
	}
	for id, n := range g.Nodes() {
		want := 0
		if id%2 == 1 {
			want = 1 // each reader hangs off its key's writer
		}
		if len(n.Preds()) != want || (want == 1 && int(n.Preds()[0]) != id-1) {
			t.Fatalf("node %d: preds %v, want the writer %d only", id, n.Preds(), id-1)
		}
	}
}
