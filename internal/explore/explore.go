// Package explore is the parallel state-space exploration engine over the
// sans-I/O protocol cores: a model checker (in the spirit of CHESS/dPOR)
// for the join+crash scenario of the paper's Figures 8/9.
//
// Each schedule is identified by a decision vector. Historically every
// schedule was replayed from the initial state — O(depth) work before the
// first new decision. The engine now checkpoints: at each branch decision a
// run captures a deep snapshot of the System (the pure cores clone in O(1)
// relative to the schedule prefix), and the frontier items for the sibling
// branches carry that snapshot, so branch expansion resumes from the parent
// state instead of the root. Snapshots are reference-counted — the last
// sibling takes ownership of the checkpoint and mutates it in place, every
// other sibling clones. Decision vectors are still recorded for every run,
// so a violating schedule is re-executed from the root with capture enabled
// and replays byte-for-byte through `canelysim -replay` regardless of how
// the violating run itself was resumed.
//
// The schedule tree is walked depth-first by a pool of workers over a
// work-stealing frontier. Two reductions cut the tree (both optional, both
// off in the pinned compatibility mode):
//
//   - state-hash pruning: at every decision point past the replayed prefix
//     the full system fingerprint (xor the sleep-set fingerprint) is
//     inserted into a sharded visited set; a hit means an equivalent
//     exploration already branched here, so the run stops and spawns no
//     children. A hash collision can only merge two distinct states and
//     skip schedules — it can never manufacture a violation.
//   - sleep-set partial-order reduction: delivering two pending frames
//     with different senders, different message identifiers and passive
//     types (neither TypeFDA nor TypeRHA — those deliveries emit
//     queue-mutating commands) commutes, so only one order is explored.
//     Timer and crash actions are dependent with everything.
//
// Violations are captured as internal/replay logs, so a counterexample
// replays byte-for-byte through `canelysim -replay`.
package explore

import (
	"context"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/replay"
)

// Config parameterizes one exploration.
type Config struct {
	Scenario Scenario
	// Workers is the pool size; 0 means 1. A single worker with Prune and
	// POR off reproduces the historical in-test DFS schedule-for-schedule.
	Workers int
	// Target caps the number of schedule runs started (completed, pruned
	// or slept). 0 explores until the frontier is exhausted.
	Target uint64
	// Prune enables state-hash pruning of converged branches.
	Prune bool
	// POR enables the sleep-set partial-order reduction.
	POR bool
	// NoSnapshot disables checkpoint-and-branch resumption: every run
	// replays its decision prefix from the root, as the engine always did
	// before checkpointing. Exploration order, schedule counts and
	// violations are identical either way (TestSnapshotSoundness pins
	// this); only the work per run changes.
	NoSnapshot bool
}

// Stats is a consistent-enough snapshot of the exploration counters (each
// counter is atomic; the set is read without a global lock).
type Stats struct {
	// Schedules counts completed runs: schedules executed to their horizon
	// and checked for liveness + agreement. CrashSchedules is the subset
	// that exercised the crash.
	Schedules      uint64
	CrashSchedules uint64
	// Pruned counts runs stopped at a decision point whose state hash was
	// already visited; Slept counts runs stopped because every enabled
	// action was in the sleep set (the trace is a reordering of an
	// explored one). Neither reaches the terminal check.
	Pruned uint64
	Slept  uint64
	// Steps is the total number of actions actually applied across all
	// runs. Checkpoint resumption skips the replayed prefix, so with
	// snapshots on this is lower than the same exploration replayed from
	// the root — the saved work is counted in ReplaySaved instead.
	Steps uint64
	// Distinct is the visited-set population: distinct (state, sleep set)
	// fingerprints seen at decision points.
	Distinct uint64
	// Frontier is the number of live work items (queued + running).
	Frontier int64
	// PeakDepth is the deepest decision vector observed.
	PeakDepth int64
	// Resumed counts runs that started from a parent checkpoint instead
	// of the root; ReplaySaved is the total prefix steps those
	// resumptions avoided re-applying.
	Resumed     uint64
	ReplaySaved uint64
	// Snapshots counts checkpoints captured.
	Snapshots uint64
}

// Runs returns the total schedule runs started.
func (s Stats) Runs() uint64 { return s.Schedules + s.Pruned + s.Slept }

// Violation is a counterexample: a schedule whose execution violated
// safety, liveness or agreement.
type Violation struct {
	// Vec is the full decision vector of the violating schedule (the
	// explored prefix extended with the zero choices actually taken).
	Vec []int
	// Crashed reports whether the schedule exercised the crash.
	Crashed bool
	// Msg is the violated property.
	Msg string
	// Log is the per-node event/command capture; replay.Verify re-executes
	// it against fresh cores and must reproduce it byte-for-byte.
	Log *replay.Log
}

// Result is the outcome of one exploration.
type Result struct {
	Stats
	// Violation is nil when every explored schedule satisfied the checked
	// properties.
	Violation *Violation
	// Exhausted reports that the frontier emptied: the bounded schedule
	// tree (as reduced by pruning and POR) was fully explored.
	Exhausted bool
}

// Engine runs one exploration. Counters may be snapshotted concurrently
// with Run via Stats.
type Engine struct {
	cfg  Config
	seed maphash.Seed

	// initial is the scenario's initial state, built once; every root run
	// restores a pooled System from it instead of rebuilding the cores.
	initial *System

	schedules      atomic.Uint64
	crashSchedules atomic.Uint64
	pruned         atomic.Uint64
	slept          atomic.Uint64
	steps          atomic.Uint64
	attempts       atomic.Uint64
	outstanding    atomic.Int64
	peakDepth      atomic.Int64
	resumed        atomic.Uint64
	replaySaved    atomic.Uint64
	snapshots      atomic.Uint64

	// noQuiesce disables the settle-phase quiescence shortcut; test-only,
	// used to pin the shortcut's soundness against the full settle.
	noQuiesce bool

	// syspool recycles System storage between runs, checkpoint captures
	// and checkpoint clones: in steady state no run allocates its state,
	// it restores recycled storage in place.
	syspool sync.Pool

	visited   visitedSet
	deques    []deque
	victim    atomic.Uint32
	violation atomic.Pointer[Violation]
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	e := &Engine{cfg: cfg, seed: maphash.MakeSeed()}
	initial, err := NewSystem(&e.cfg.Scenario, nil)
	if err != nil {
		return nil, err
	}
	e.initial = initial
	e.visited.init()
	e.deques = make([]deque, cfg.Workers)
	return e, nil
}

// Stats snapshots the live counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Schedules:      e.schedules.Load(),
		CrashSchedules: e.crashSchedules.Load(),
		Pruned:         e.pruned.Load(),
		Slept:          e.slept.Load(),
		Steps:          e.steps.Load(),
		Distinct:       e.visited.size.Load(),
		Frontier:       e.outstanding.Load(),
		PeakDepth:      e.peakDepth.Load(),
		Resumed:        e.resumed.Load(),
		ReplaySaved:    e.replaySaved.Load(),
		Snapshots:      e.snapshots.Load(),
	}
}

// Run explores until the frontier is exhausted, the target is reached, a
// violation is found, or ctx expires — whichever comes first.
func (e *Engine) Run(ctx context.Context) (Result, error) {
	e.outstanding.Store(1)
	e.deques[0].push(item{}) // the root: the empty prefix

	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			e.worker(ctx, self)
		}(w)
	}
	wg.Wait()

	res := Result{
		Stats:     e.Stats(),
		Violation: e.violation.Load(),
		Exhausted: e.outstanding.Load() == 0 && e.violation.Load() == nil,
	}
	return res, ctx.Err()
}

// item is one frontier entry: an unexplored branch prefix, optionally with
// the checkpoint it can resume from.
type item struct {
	// vec is the decision vector selecting the branch.
	vec []int
	// snap, when non-nil, is the checkpoint the parent run took at this
	// item's branch decision (snap.depth == len(vec)-1); the run restores
	// it and applies only that last choice instead of the whole prefix.
	// nil means replay from the root.
	snap *snapshot
	// counts carries the parent's branch factors for decisions
	// 0..snap.depth-1, seeding the resumed run's count record so children
	// index identically to a root replay. Shared read-only across
	// siblings.
	counts []int
}

// snapshot is a ref-counted checkpoint of a System at one branch decision.
// refs is the number of frontier items still due to consume it: the last
// consumer takes ownership of sys and mutates it in place, every earlier
// consumer deep-clones. Cloning strictly precedes the clone's decrement, so
// ownership (only taken at refs==1) can never race a clone in progress.
type snapshot struct {
	sys *System
	// sleep is the run's sleep set at the decision point (read-only).
	sleep []actionID
	// depth and steps are the decision index and applied-step count at
	// capture time.
	depth int
	steps int
	refs  atomic.Int32
}

// getSystem returns recycled System storage (state unspecified — the
// caller restores over it), falling back to a fresh deep copy of the
// initial state when the pool is dry.
func (e *Engine) getSystem() *System {
	if v := e.syspool.Get(); v != nil {
		return v.(*System)
	}
	return e.initial.Snapshot()
}

// consume returns a System holding the checkpointed state, transferring or
// copying per the ref-count protocol. Copies restore into recycled
// storage; only the last sibling may mutate sn.sys in place, and only it
// can observe refs==1, so a copy in progress (which decrements strictly
// after it completes) never races the handoff.
func (e *Engine) consume(sn *snapshot) *System {
	if sn.refs.CompareAndSwap(1, 0) {
		sys := sn.sys
		sn.sys = nil
		return sys
	}
	sys := e.getSystem()
	sys.Restore(sn.sys)
	if sn.refs.Add(-1) == 0 {
		// Everyone copied (an ownership handoff raced and lost): recycle
		// the original.
		e.syspool.Put(sn.sys)
		sn.sys = nil
	}
	return sys
}

// worker is one member of the pool: pop own work LIFO (depth-first), steal
// from a round-robin victim when dry, stop on exhaustion, target, violation
// or ctx expiry.
func (e *Engine) worker(ctx context.Context, self int) {
	for {
		if ctx.Err() != nil || e.violation.Load() != nil {
			return
		}
		it, ok := e.deques[self].pop()
		if !ok {
			it, ok = e.steal(self)
		}
		if !ok {
			if e.outstanding.Load() == 0 {
				return
			}
			time.Sleep(20 * time.Microsecond)
			continue
		}
		if e.cfg.Target > 0 && !e.claim() {
			// Target reached: put the item back for accounting symmetry
			// (outstanding stays consistent) and stop this worker.
			e.deques[self].push(it)
			return
		}
		e.explore(self, it)
	}
}

// claim reserves one run attempt against the target.
func (e *Engine) claim() bool {
	for {
		n := e.attempts.Load()
		if n >= e.cfg.Target {
			return false
		}
		if e.attempts.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// steal takes work from other workers' deques, round-robin from an atomic
// victim cursor (the same chunked-claim idiom internal/campaign uses for
// its run cursor).
func (e *Engine) steal(self int) (item, bool) {
	n := len(e.deques)
	start := int(e.victim.Add(1))
	for i := 0; i < n; i++ {
		v := (start + i) % n
		if v == self {
			continue
		}
		if batch, ok := e.deques[v].stealHalf(); ok {
			// Keep one, queue the rest locally.
			for _, it := range batch[1:] {
				e.deques[self].push(it)
			}
			return batch[0], true
		}
	}
	return item{}, false
}

// explore runs the schedule selected by it and pushes the sibling branches
// it discovers, handing each the checkpoint taken at its branch point.
func (e *Engine) explore(self int, it item) {
	r := e.run(it, nil, e.cfg.Prune)

	switch {
	case r.err != nil:
		v := e.capture(it.vec, r)
		e.violation.CompareAndSwap(nil, v)
		e.outstanding.Add(-1)
		return
	case r.pruned:
		e.pruned.Add(1)
	case r.slept:
		e.slept.Add(1)
	default:
		e.schedules.Add(1)
		if r.crashed {
			e.crashSchedules.Add(1)
		}
	}
	// CAS-max: a plain load/store pair lets a smaller concurrent maximum
	// overwrite a larger one.
	for d := int64(len(r.counts)); ; {
		cur := e.peakDepth.Load()
		if d <= cur || e.peakDepth.CompareAndSwap(cur, d) {
			break
		}
	}

	// Branch on every decision point past the explored prefix: choice 0 is
	// the schedule just run, alternatives are new schedules. A pruned run
	// still branches on the decisions before the prune point — those
	// states were first visits, inserted by this very run.
	pushed := int64(0)
	for i := len(it.vec); i < len(r.counts); i++ {
		pushed += int64(r.counts[i] - 1)
	}
	// Publish every checkpoint's reference count before any child that
	// carries it becomes stealable.
	for i := len(it.vec); i < len(r.counts); i++ {
		if sn := r.snaps[i-len(it.vec)]; sn != nil {
			sn.refs.Add(int32(r.counts[i] - 1))
		}
	}
	// One transition on the frontier gauge: this item becomes its children.
	// Split Add(pushed)/Add(-1) pairs let a concurrent Stats read observe
	// a torn intermediate value.
	e.outstanding.Add(pushed - 1)
	for i := len(it.vec); i < len(r.counts); i++ {
		sn := r.snaps[i-len(it.vec)]
		var cts []int
		if sn != nil {
			cts = r.counts[:sn.depth]
		}
		for c := r.counts[i] - 1; c >= 1; c-- {
			child := make([]int, i+1)
			copy(child, it.vec)
			child[i] = c
			e.deques[self].push(item{vec: child, snap: sn, counts: cts})
		}
	}
}

// runResult is the outcome of a single schedule execution.
type runResult struct {
	counts  []int // branching factor at each decision point (awake actions)
	fullVec []int // the choices actually taken, decision by decision
	// snaps[j] is the checkpoint taken at decision len(it.vec)+j, which
	// the children branching there resume from (nil under NoSnapshot: root
	// replay); parallel to the new suffix of counts.
	snaps   []*snapshot
	crashed bool
	pruned  bool
	slept   bool
	err     error
}

// run executes one schedule described by it (choice 0 assumed past the end
// of it.vec), resuming from it.snap when present. rec, when non-nil,
// captures every core step; recording runs always start from the root so
// the log covers the complete schedule. prune gates the visited-set check
// (the counterexample re-run disables it: the set is already populated and
// would cut the replay short — pruning never alters choices, so the
// replayed path is identical either way). The run's System storage comes
// from and returns to the engine's recycling pool.
func (e *Engine) run(it item, rec *replay.Log, prune bool) runResult {
	sc := &e.cfg.Scenario
	var res runResult
	var sleep []actionID
	var s *System
	decision := 0
	steps := 0
	base := 0
	switch {
	case rec != nil:
		sys, err := NewSystem(sc, rec)
		if err != nil {
			return runResult{err: err}
		}
		s = sys
	case it.snap != nil:
		sn := it.snap
		s = e.consume(sn)
		s.rec = nil
		decision = sn.depth
		steps = sn.steps
		base = sn.steps
		res.counts = append(res.counts, it.counts...)
		res.fullVec = append(res.fullVec, it.vec[:sn.depth]...)
		if len(sn.sleep) > 0 {
			sleep = append(sleep, sn.sleep...)
		}
		e.resumed.Add(1)
		e.replaySaved.Add(uint64(sn.steps))
	default:
		s = e.getSystem()
		s.Restore(e.initial)
		s.rec = nil
	}
	if rec == nil {
		defer func() { e.syspool.Put(s) }()
	}
	capture := rec == nil && !e.cfg.NoSnapshot
	h := &s.hash
	h.SetSeed(e.seed)
	defer func() { e.steps.Add(uint64(steps - base)) }()

	for steps < sc.MaxSteps && s.now < sc.End {
		if decision >= sc.MaxDepth && len(sleep) == 0 {
			// Deterministic tail: the decision budget is spent and the
			// sleep set is empty (with choice forever 0 it can only
			// shrink), so every remaining choice is action 0 — no counts,
			// no prune inserts, no sleep bookkeeping. stepFirst applies
			// enabled()[0] without materializing the action list, and a
			// quiescent system short-circuits straight to the terminal
			// check (see System.quiescent for the argument).
			if !e.noQuiesce && s.quiescent() {
				break
			}
			if !s.stepFirst() {
				break
			}
			steps++
			if err := s.checkSafety(); err != nil {
				res.crashed = s.crashed
				res.err = err
				return res
			}
			continue
		}
		en := s.enabled()
		if len(en) == 0 {
			break
		}

		// Sleep-set filter: skip actions whose delivery order was already
		// covered by an explored sibling.
		awake := en
		if e.cfg.POR && len(sleep) > 0 {
			awake = awake[:0] // enabled()'s buffer; filter in place
			for _, a := range en {
				if a.kind == actFrame && sleeps(sleep, s.id(a)) {
					continue
				}
				awake = append(awake, a)
			}
			if len(awake) == 0 {
				res.slept = true
				res.crashed = s.crashed
				return res
			}
		}

		choice := 0
		if len(awake) > 1 && decision < sc.MaxDepth {
			if decision >= len(it.vec) {
				if prune {
					h.Reset()
					s.Fingerprint(h)
					// The key is (state, sleep set, decision index). The
					// sleep set masks part of the subtree, so states
					// reached with different sleep sets must not merge;
					// the decision index bounds how deep the subtree may
					// still branch (MaxDepth counts decisions, not steps),
					// so a state first reached near the cap must not hide
					// a shallower re-entry that deserves deeper
					// exploration.
					key := h.Sum64() ^ sleepHash(e.seed, sleep) ^ proto.Mix64(uint64(decision))
					if !e.visited.insert(key) {
						// An equivalent exploration already branched here;
						// its children cover this subtree.
						res.pruned = true
						res.crashed = s.crashed
						return res
					}
				}
				// Checkpoint this branch point for the sibling children.
				var sn *snapshot
				if capture {
					snapSys := e.getSystem()
					snapSys.Restore(s)
					snapSys.rec = nil
					sn = &snapshot{sys: snapSys, depth: decision, steps: steps}
					if len(sleep) > 0 {
						sn.sleep = append([]actionID(nil), sleep...)
					}
					e.snapshots.Add(1)
				}
				res.snaps = append(res.snaps, sn)
			}
			res.counts = append(res.counts, len(awake))
			if decision < len(it.vec) {
				choice = it.vec[decision]
			}
			decision++
			if choice >= len(awake) {
				choice = len(awake) - 1
			}
			res.fullVec = append(res.fullVec, choice)
		}
		if choice >= len(awake) {
			choice = len(awake) - 1
		}
		chosen := awake[choice]

		// Sleep propagation: the explored earlier siblings join the set,
		// then everything dependent with the chosen action wakes up.
		if e.cfg.POR {
			if chosen.kind != actFrame {
				// Timers and the crash are dependent with everything.
				sleep = sleep[:0]
			} else {
				cid := s.id(chosen)
				for i := 0; i < choice; i++ {
					if a := awake[i]; a.kind == actFrame {
						sleep = append(sleep, s.id(a))
					}
				}
				kept := sleep[:0]
				for _, x := range sleep {
					if commutes(x, cid) {
						kept = append(kept, x)
					}
				}
				sleep = kept
			}
		}

		s.apply(chosen)
		steps++

		if err := s.checkSafety(); err != nil {
			res.crashed = s.crashed
			res.err = err
			return res
		}
	}
	// Deterministic settle: past the horizon the run continues without
	// branching — pending frames first, then the earliest timer — long
	// enough for any recovery the horizon truncated to complete. This keeps
	// the terminal liveness check honest at a bounded horizon: a node
	// falsely suspected just before End (a legal timer-vs-life-sign race
	// inside the skew window) needs up to a rejoin round to reintegrate,
	// and flagging that in-flight recovery would be a horizon artifact. A
	// genuinely stuck divergence survives any settle window and is still
	// reported. Frames-before-timers makes the suffix race-free: a pending
	// life sign always lands before the surveillance timer that would
	// falsely expire on it. A quiescent system skips the rest of the
	// settle: from the converged steady state the remaining steps are pure
	// life-sign cycling and cannot change the terminal verdict.
	settleEnd := sc.End.Add(sc.Settle)
	for steps < sc.MaxSteps && s.now < settleEnd {
		if !e.noQuiesce && s.quiescent() {
			break
		}
		if !s.stepFirst() {
			break
		}
		steps++
		if err := s.checkSafety(); err != nil {
			res.crashed = s.crashed
			res.err = err
			return res
		}
	}
	res.crashed = s.crashed
	res.err = s.checkTerminal()
	return res
}

// capture re-runs a violating schedule from the root with recording enabled
// and wraps it as a Violation. The re-run follows the exact same path even
// when the violating run was checkpoint-resumed: resumption reproduces the
// root-replay state by construction, pruning is off (it never alters
// choices, only cuts runs short) and the sleep-set evolution is a pure
// function of the prefix.
func (e *Engine) capture(vec []int, r runResult) *Violation {
	rec := &replay.Log{}
	rr := e.run(item{vec: vec}, rec, false)
	v := &Violation{Vec: rr.fullVec, Crashed: rr.crashed, Log: rec}
	if rr.err != nil {
		v.Msg = rr.err.Error()
	} else {
		// Should be unreachable: the replayed path is deterministic.
		v.Msg = fmt.Sprintf("violation vanished on recorded re-run (first seen: %v)", r.err)
	}
	return v
}

// passive reports whether delivering a frame of the type emits no
// queue-mutating command: every type except the failure-sign (the FDA
// answers a first copy with an eager re-diffusion request), the RHA
// vector (whose reception can abort and resend the local proposal) and
// gossip datagrams (pings and ping-reqs are answered with acks or
// forwarded probes).
func passive(t can.MsgType) bool {
	return t != can.TypeFDA && t != can.TypeRHA && t != can.TypeGossip
}

// commutes reports whether delivering the two pending frames in either
// order reaches the same state: different senders, different message
// identifiers (so neither delivery merges the other away) and both
// passive (their deliveries only update per-sender surveillance slots,
// chase the scan-timer minimum, and latch membership sets — all
// order-insensitive).
func commutes(x, y actionID) bool {
	return x.sender != y.sender && x.mid != y.mid &&
		passive(x.mid.Type) && passive(y.mid.Type)
}

// sleeps reports whether id is in the sleep set.
func sleeps(sleep []actionID, id actionID) bool {
	for _, x := range sleep {
		if x == id {
			return true
		}
	}
	return false
}

// sleepHash folds the sleep set order-independently into a 64-bit value.
// It is xor-ed into the visited key: a state reached with different sleep
// sets must not prune against itself — the sleep sets mask different
// subtrees, and merging them is the classic sleep-set/state-caching
// unsoundness.
func sleepHash(seed maphash.Seed, sleep []actionID) uint64 {
	var acc uint64
	var h maphash.Hash
	for _, x := range sleep {
		h.SetSeed(seed)
		proto.HashU64(&h, uint64(x.sender))
		proto.HashU64(&h, uint64(x.mid.Encode()))
		proto.HashBool(&h, x.rtr)
		proto.HashU64(&h, uint64(x.payLen))
		proto.HashU64(&h, x.pay)
		acc ^= proto.Mix64(h.Sum64())
	}
	return acc
}

// deque is one worker's frontier shard: a mutex-protected stack. The owner
// pushes and pops at the tail (LIFO keeps the walk depth-first, bounding
// the frontier); thieves take half from the head, where the shallowest —
// largest — subtrees sit.
type deque struct {
	mu    sync.Mutex
	items []item
}

func (d *deque) push(it item) {
	d.mu.Lock()
	d.items = append(d.items, it)
	d.mu.Unlock()
}

func (d *deque) pop() (item, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return item{}, false
	}
	it := d.items[n-1]
	d.items[n-1] = item{}
	d.items = d.items[:n-1]
	return it, true
}

// stealHalf removes the older half of the stack (at least one item).
func (d *deque) stealHalf() ([]item, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return nil, false
	}
	take := (n + 1) / 2
	batch := make([]item, take)
	copy(batch, d.items[:take])
	kept := copy(d.items, d.items[take:])
	for i := kept; i < n; i++ {
		d.items[i] = item{} // drop stale references
	}
	d.items = d.items[:kept]
	return batch, true
}

// visitedSet is the sharded distinct-state set. Shards are selected by the
// key's low bits; each shard is an independently locked map, so concurrent
// inserts from the worker pool rarely contend.
type visitedSet struct {
	shards [64]visitedShard
	size   atomic.Uint64
}

type visitedShard struct {
	mu   sync.Mutex
	keys map[uint64]struct{}
	_    [40]byte // keep neighbouring shards off one cache line
}

func (v *visitedSet) init() {
	for i := range v.shards {
		v.shards[i].keys = make(map[uint64]struct{})
	}
}

// insert adds key and reports whether it was new.
func (v *visitedSet) insert(key uint64) bool {
	sh := &v.shards[key&63]
	sh.mu.Lock()
	_, dup := sh.keys[key]
	if !dup {
		sh.keys[key] = struct{}{}
	}
	sh.mu.Unlock()
	if !dup {
		v.size.Add(1)
	}
	return !dup
}
