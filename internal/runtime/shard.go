package runtime

import (
	"math"
	"reflect"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
)

// maxShards bounds the dependence-tracker shard count so a shard set fits
// in one uint64 bitmask (the lock-plan representation used on the submit
// path).
const maxShards = 64

// keyFloor is the per-shard key count below which the tracker never
// sweeps for dead entries: a stable key space (a tiled kernel's tiles)
// stays under it and pays nothing, and past it a sweep runs only once the
// count has doubled since the last one, so its cost amortises to O(1) per
// inserted key.
const keyFloor = 1024

// keyState is the renamer entry for one dependence key: the key's last
// writer and the readers registered since that writer. Both hold
// generation-tagged references: with task records pooled, a referenced
// record may have been recycled for an unrelated task by the time a later
// registration consults it, and the generation check (linkPreds) filters
// those dead references out. An entry whose writer and readers are all
// dead therefore constrains nothing, and the shard sweep retires it.
//
// The references are also the per-shard key→domain affinity map: each
// referenced record carries the worker (and hence domain) that executed
// it (task.exec), so a registration consulting a key's last writer learns
// where that key's data is hot — linkPreds turns that into the task's
// affinity, which CATS weighs against criticality and the steal
// scheduler's injector placement routes by. No second structure is
// needed: the renamer state already indexes by key.
type keyState struct {
	writer  taskRef
	readers []taskRef
}

// dead reports whether every task the entry references has retired, i.e.
// the entry would add no edge to any later registration.
func (ks *keyState) dead() bool {
	if ks.writer.t != nil && ks.writer.live() {
		return false
	}
	for _, rd := range ks.readers {
		if rd.live() {
			return false
		}
	}
	return true
}

// addReader appends a reader reference. When the slice is full it first
// compacts out retired readers, so a key that is read forever and never
// written stays bounded by its live readers; if most readers are still
// live it doubles the capacity instead, which keeps the scan amortised.
func (ks *keyState) addReader(ref taskRef) {
	if n := len(ks.readers); n > 0 && n == cap(ks.readers) {
		live := ks.readers[:0]
		for _, rd := range ks.readers {
			if rd.live() {
				live = append(live, rd)
			}
		}
		clear(ks.readers[len(live):n])
		if len(live) > n/2 {
			live = append(make([]taskRef, 0, 2*n), live...)
		}
		ks.readers = live
	}
	ks.readers = append(ks.readers, ref)
}

// depShard is one slice of the dependence tracker: the renamer state for
// every data key that hashes here, plus a slab of the global task log.
// Shards are locked in ascending index order — the total order that makes
// multi-shard submissions deadlock-free and serialises any two
// registrations that share a key.
type depShard struct {
	mu sync.Mutex
	// keys maps each tracked dependence key to its renamer entry: one
	// hash lookup per dependence, whatever the access mode.
	keys map[any]*keyState
	// spare holds swept entries for reuse, so a stream of fresh keys
	// inserts without allocating.
	spare []*keyState
	// unkeyed is the scratch entry entry returns for a key unequal to
	// itself, which is never inserted.
	unkeyed keyState
	// sweepAt is the key count at which the next insert sweeps dead
	// entries: twice the count the last sweep left, and never below
	// keyFloor.
	sweepAt int
	// tracked mirrors len(keys): written under mu, read atomically by
	// StatsInto without taking the shard lock.
	tracked atomic.Int64
	// tasks is this shard's slab of the task log (tasks whose log shard is
	// this one). The full log is the sorted-by-seq union over all shards.
	// Populated only under WithTraceRetention — by default the log stays
	// empty so completed tasks are collectable (and their records
	// recyclable).
	tasks []*task
	// predScratch is the registration scratch trackDeps collects
	// predecessor refs into and linkPreds consumes, valid only while this
	// shard (the registering task's log shard) is locked. Living on the
	// shard rather than the task record, its capacity converges to the
	// workload's fan width once per shard instead of once per pooled
	// record — records drifting into a wide-fan role for the first time
	// were the last steady-state allocation trickle.
	predScratch []taskRef
}

func newShards(n int) []*depShard {
	shards := make([]*depShard, n)
	for i := range shards {
		shards[i] = &depShard{keys: make(map[any]*keyState), sweepAt: keyFloor}
	}
	return shards
}

// entry returns key's renamer entry, inserting a fresh one for a key the
// shard does not track. An insert that finds the key count at the sweep
// threshold first retires every dead entry. Under WithTraceRetention no
// record is recycled, so such a sweep finds nothing and only doubles the
// threshold — amortised O(1) per insert like any other. Caller holds s.mu.
func (s *depShard) entry(key any) *keyState {
	if ks, ok := s.keys[key]; ok {
		return ks
	}
	if key != key {
		// A key unequal to itself (a NaN, or a struct or array holding
		// one) can never be looked up again, so an entry for it would
		// constrain nothing and could never be deleted. Hand back the
		// shard's scratch entry, emptied, instead of inserting.
		s.unkeyed.writer = taskRef{}
		clear(s.unkeyed.readers)
		s.unkeyed.readers = s.unkeyed.readers[:0]
		return &s.unkeyed
	}
	if len(s.keys) >= s.sweepAt {
		s.sweepDead()
	}
	var ks *keyState
	if n := len(s.spare); n > 0 {
		ks = s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
	} else {
		ks = new(keyState)
	}
	s.keys[key] = ks
	s.tracked.Store(int64(len(s.keys)))
	return ks
}

// sweepDead deletes every dead entry, moving it (cleared, reader capacity
// kept) onto the spare list, and sets the next sweep threshold. Deleting
// changes no ordering: linkPreds would have discarded each of the entry's
// references on the generation check, and a key seen again starts from an
// empty entry, which is exactly what those references amounted to. The
// spare list keeps only as many entries as inserts can take before the
// next sweep; the rest are left to the collector. Caller holds s.mu.
func (s *depShard) sweepDead() {
	for key, ks := range s.keys {
		if ks.dead() {
			delete(s.keys, key)
			ks.writer = taskRef{}
			clear(ks.readers)
			ks.readers = ks.readers[:0]
			s.spare = append(s.spare, ks)
		}
	}
	s.sweepAt = max(2*len(s.keys), keyFloor)
	if keep := s.sweepAt - len(s.keys); len(s.spare) > keep {
		clear(s.spare[keep:])
		s.spare = s.spare[:keep]
	}
	s.tracked.Store(int64(len(s.keys)))
}

// ResolveShards reports the shard count a runtime built with WithShards(n)
// will use — for tooling that sweeps shard counts and needs to recognise
// requests that resolve to the same configuration.
func ResolveShards(n int) int { return resolveShards(n) }

// resolveShards turns the WithShards option into the actual shard count:
// 0 (auto) becomes the next power of two ≥ GOMAXPROCS, everything is
// clamped to [1, maxShards].
func resolveShards(n int) int {
	if n <= 0 {
		n = 1
		for n < stdruntime.GOMAXPROCS(0) {
			n <<= 1
		}
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

// shardIndex maps a dependence key to its shard. Equal keys always map to
// the same shard (the only correctness requirement); distinct keys sharing
// a shard merely share a lock.
func (r *Runtime) shardIndex(key any) int {
	n := uint64(len(r.shards))
	if n == 1 {
		return 0
	}
	return int(hashKey(key) % n)
}

// hashKey hashes a dependence key consistently with ==, without
// allocating: common key types get an inline integer mix, and structs,
// arrays, pointers and the rest go through hashValue. A key that is not
// comparable gets some hash; the tracker map rejects it with a panic at
// registration.
func hashKey(key any) uint64 {
	switch k := key.(type) {
	case string:
		return hashString(k)
	case int:
		return mix64(uint64(k))
	case int8:
		return mix64(uint64(k))
	case int16:
		return mix64(uint64(k))
	case int32:
		return mix64(uint64(k))
	case int64:
		return mix64(uint64(k))
	case uint:
		return mix64(uint64(k))
	case uint8:
		return mix64(uint64(k))
	case uint16:
		return mix64(uint64(k))
	case uint32:
		return mix64(uint64(k))
	case uint64:
		return mix64(k)
	case uintptr:
		return mix64(uint64(k))
	case float64:
		return mix64(floatBits(k))
	case float32:
		return mix64(floatBits(float64(k)))
	}
	return hashValue(0, reflect.ValueOf(key))
}

// hashValue folds v into h such that values equal under == fold equally.
// A kind that is not comparable (func, map, slice) leaves h unchanged.
func hashValue(h uint64, v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Invalid: // the nil interface
		return mixIn(h, 0)
	case reflect.Bool:
		if v.Bool() {
			return mixIn(h, 1)
		}
		return mixIn(h, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return mixIn(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return mixIn(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		return mixIn(h, floatBits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		return mixIn(mixIn(h, floatBits(real(c))), floatBits(imag(c)))
	case reflect.String:
		return mixIn(h, hashString(v.String()))
	case reflect.Pointer, reflect.UnsafePointer, reflect.Chan:
		return mixIn(h, uint64(v.Pointer()))
	case reflect.Interface:
		return hashValue(h, v.Elem())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			h = hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		for _, i := range structFields(v.Type()) {
			h = hashValue(h, v.Field(i))
		}
	}
	return h
}

// fieldPlans caches, per struct type, the indices of the fields struct
// equality compares: all but the blank (_) ones.
var fieldPlans sync.Map // reflect.Type → []int

// structFields returns the compared field indices of struct type t.
func structFields(t reflect.Type) []int {
	if p, ok := fieldPlans.Load(t); ok {
		return p.([]int)
	}
	var idx []int
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Name != "_" {
			idx = append(idx, i)
		}
	}
	p, _ := fieldPlans.LoadOrStore(t, idx)
	return p.([]int)
}

// floatBits is the bit pattern of f with negative zero folded into
// positive zero: the two compare equal, so they must hash equal.
func floatBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// mixIn folds one word into a running hash.
func mixIn(h, x uint64) uint64 { return mix64(h ^ (x + 0x9e3779b97f4a7c15)) }

// mix64 is the splitmix64 finaliser: a cheap, well-distributed integer
// hash, so consecutive keys (block indices…) spread across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a, inlined to avoid the hash.Hash allocation on the
// common string-key path.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// shardPlan computes the lock set for registering t: one bit per shard the
// task's dependence keys hash to, plus the log shard the task record is
// appended to (recorded in t.logShard — a field rather than a second
// return so the batch path needs no per-batch side array). Dependence-free
// tasks log to seq-round-robin shards so an embarrassingly-parallel stream
// spreads instead of serialising — and when no trace is retained they lock
// nothing at all, since their registration touches no tracker state
// (lockShards(0) is a no-op).
func (r *Runtime) shardPlan(t *task) (mask uint64) {
	deps := t.deps()
	if len(deps) == 0 {
		if !r.opts.retainTrace {
			t.logShard = 0
			return 0
		}
		t.logShard = int32(uint64(t.seq) % uint64(len(r.shards)))
		return 1 << t.logShard
	}
	// Each dependence's shard is worked out once, here, and stored on the
	// record for trackDeps.
	shards := t.depShards()
	for i, d := range deps {
		idx := r.shardIndex(d.Key)
		shards[i] = uint8(idx)
		mask |= 1 << idx
	}
	t.logShard = int32(shards[0])
	return mask
}

// lockShards acquires every shard in mask in ascending index order. Any
// two submissions with overlapping masks are thereby fully serialised
// (their registration critical sections cannot interleave), which keeps
// per-key dependence chains consistent and the resulting graph acyclic.
func (r *Runtime) lockShards(mask uint64) {
	for i := 0; mask != 0; i++ {
		if mask&(1<<i) != 0 {
			r.shards[i].mu.Lock()
			mask &^= 1 << i
		}
	}
}

// unlockShards releases every shard in mask.
func (r *Runtime) unlockShards(mask uint64) {
	for i := 0; mask != 0; i++ {
		if mask&(1<<i) != 0 {
			r.shards[i].mu.Unlock()
			mask &^= 1 << i
		}
	}
}
