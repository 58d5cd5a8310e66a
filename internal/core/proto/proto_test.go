package proto

import (
	"math/rand"
	"testing"

	"canely/internal/can"
)

// TestTraceCommandString pins the rendered form of every protocol trace
// message: replay logs and the golden trace print commands this way, and
// only the life-sign and failure-detector messages appear in the golden
// trace.
func TestTraceCommandString(t *testing.T) {
	a := can.EmptySet.Add(0).Add(1).Add(2)
	b := can.EmptySet.Add(0).Add(2)
	for _, tc := range []struct {
		cmd  Command
		want string
	}{
		{TraceELS(), `trace els "explicit life-sign"`},
		{TraceTimerExpired(3), `trace fd-nty "timer expired for n03"`},
		{TraceNodeFailed(3), `trace fda-nty "node n03 failed"`},
		{TraceJoinRequested(), `trace join-req "join requested"`},
		{TraceJoinRetried(), `trace join-req "join retried"`},
		{TraceLeaveRequested(), `trace leave-req "leave requested"`},
		{TraceViewChange(a, b), `trace view-change "view {n00,n01,n02} -> {n00,n02}"`},
		{TraceRHAStart(a), `trace rha-start "rhv={n00,n01,n02}"`},
		{TraceRHAEnd(b), `trace rha-end "rhv={n00,n02}"`},
		{TraceFedDigest(4, a), `trace fed-digest "digest s04 view={n00,n01,n02}"`},
		{TraceSegmentStale(5), `trace site-change "segment s05 stale"`},
		{TraceSiteChange(a, b), `trace site-change "site {n00,n01,n02} -> {n00,n02}"`},
	} {
		if got := tc.cmd.String(); got != tc.want {
			t.Errorf("got  %s\nwant %s", got, tc.want)
		}
	}
}

// TestFingerprintFolding checks the two properties exploration pruning
// rests on. Permutation invariance: a container folded with MixPair and XOR
// hashes the same whatever order it is walked in. Collision sanity: distinct
// keys, values and sets fold to distinct words, so states that differ are
// not pruned as one.
func TestFingerprintFolding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	for trial := 0; trial < 200; trial++ {
		keys := rng.Perm(64)[:1+rng.Intn(32)]
		vals := make(map[int]uint64, len(keys))
		var acc uint64
		for _, k := range keys {
			vals[k] = rng.Uint64()
			acc ^= MixPair(uint64(k), vals[k])
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		var shuffled, ranged uint64
		for _, k := range keys {
			shuffled ^= MixPair(uint64(k), vals[k])
		}
		for k, v := range vals { // Go's map order is randomized per walk
			ranged ^= MixPair(uint64(k), v)
		}
		if shuffled != acc || ranged != acc {
			t.Fatalf("trial %d: fold depends on walk order", trial)
		}
	}

	seen := make(map[uint64]uint64)
	for i := 0; i < 1<<16; i++ {
		x := uint64(i)
		if i&1 == 1 {
			x = rng.Uint64()
		}
		if prev, dup := seen[Mix64(x)]; dup && prev != x {
			t.Fatalf("Mix64(%#x) == Mix64(%#x)", x, prev)
		}
		seen[Mix64(x)] = x
	}
	for i := 0; i < 10000; i++ {
		k, v, w := rng.Uint64()%64, rng.Uint64(), rng.Uint64()
		if v != w && MixPair(k, v) == MixPair(k, w) {
			t.Fatalf("MixPair(%d, ·) collides on %#x and %#x", k, v, w)
		}
		if k != v && MixPair(k, v) == MixPair(v, k) {
			t.Fatalf("MixPair(%d, %#x) is symmetric", k, v)
		}
	}

	// Every subset of a 16-entry table folds to its own word.
	var entries [16]uint64
	for i := range entries {
		entries[i] = MixPair(uint64(i), rng.Uint64())
	}
	folds := make(map[uint64]int, 1<<len(entries))
	for set := 0; set < 1<<len(entries); set++ {
		var acc uint64
		for i, e := range entries {
			if set&(1<<i) != 0 {
				acc ^= e
			}
		}
		if other, dup := folds[acc]; dup {
			t.Fatalf("subsets %#x and %#x fold to the same word", other, set)
		}
		folds[acc] = set
	}
}
