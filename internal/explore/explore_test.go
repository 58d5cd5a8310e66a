package explore

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/replay"
)

// TestPinnedBaseline pins the exact schedule counts of the historical
// in-test DFS (internal/core's TestInterleavingExplorer before the engine
// was extracted): one worker, no pruning, no POR must walk the identical
// tree in the identical order — 1200 schedules, 641 of them exercising the
// crash. Any drift here means the extraction changed harness semantics.
func TestPinnedBaseline(t *testing.T) {
	e, err := New(Config{Scenario: DefaultScenario(), Workers: 1, Target: 1200})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("schedule %v violates the protocol: %s", res.Violation.Vec, res.Violation.Msg)
	}
	if res.Schedules != 1200 || res.CrashSchedules != 641 {
		t.Fatalf("explored %d schedules (%d with a crash), the historical DFS explored 1200 (641)",
			res.Schedules, res.CrashSchedules)
	}
	if res.Pruned != 0 || res.Slept != 0 {
		t.Fatalf("naive mode pruned %d / slept %d runs, want 0/0", res.Pruned, res.Slept)
	}
}

// TestReduction exhausts a depth-bounded tree twice — naively and with
// pruning + POR — and checks the issue's reduction claim: the reduced walk
// covers the same bounded state space (both exhaust, both violation-free)
// in less than half the runs.
func TestReduction(t *testing.T) {
	sc := DefaultScenario()
	sc.MaxDepth = 8

	naive, err := New(Config{Scenario: sc, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := naive.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rn.Violation != nil || !rn.Exhausted {
		t.Fatalf("naive: violation=%+v exhausted=%v", rn.Violation, rn.Exhausted)
	}

	red, err := New(Config{Scenario: sc, Workers: 1, Prune: true, POR: true})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := red.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Violation != nil || !rr.Exhausted {
		t.Fatalf("reduced: violation=%+v exhausted=%v", rr.Violation, rr.Exhausted)
	}

	if rr.Runs()*2 >= rn.Runs() {
		t.Fatalf("hash pruning + POR explored %d runs vs %d naive: want >2x reduction",
			rr.Runs(), rn.Runs())
	}
	if rr.Distinct == 0 || rr.Pruned == 0 {
		t.Fatalf("reduced walk recorded distinct=%d pruned=%d, expected both nonzero",
			rr.Distinct, rr.Pruned)
	}
	t.Logf("naive %d runs, reduced %d runs (%d completed, %d pruned, %d slept, %d distinct states): %.1fx",
		rn.Runs(), rr.Runs(), rr.Schedules, rr.Pruned, rr.Slept, rr.Distinct,
		float64(rn.Runs())/float64(rr.Runs()))
}

// TestParallelExhaustsReducedTree runs the worker pool with work stealing
// over a depth-bounded tree and checks it reaches the same exhaustion with
// zero violations regardless of the nondeterministic work split.
func TestParallelExhaustsReducedTree(t *testing.T) {
	sc := DefaultScenario()
	sc.MaxDepth = 12
	ref, err := New(Config{Scenario: sc, Workers: 1, Prune: true, POR: true})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		e, err := New(Config{Scenario: sc, Workers: workers, Prune: true, POR: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("w=%d: schedule %v violates the protocol: %s",
				workers, res.Violation.Vec, res.Violation.Msg)
		}
		if !res.Exhausted {
			t.Fatalf("w=%d: frontier not exhausted (outstanding=%d)", workers, res.Frontier)
		}
		// Prune interleavings differ across worker counts (whichever run
		// reaches a state first inserts it), so run counts may differ
		// slightly — but the distinct-state space is schedule-independent.
		if res.Distinct != rs.Distinct {
			t.Fatalf("w=%d visited %d distinct states, single worker visited %d",
				workers, res.Distinct, rs.Distinct)
		}
	}
}

// TestFaultCounterexample injects a reception fault outside the model's
// assumptions (node 0 silently misses every failure-sign frame) and checks
// the full counterexample pipeline: the explorer finds the violated
// agreement, captures the schedule as a replay log, the log verifies
// byte-for-byte against fresh cores, and it round-trips through
// Save/Load — the exact artifact `canelysim -replay` consumes.
func TestFaultCounterexample(t *testing.T) {
	sc := DefaultScenario()
	sc.Drop = true
	sc.DropNode = 0
	sc.DropType = can.TypeFDA
	e, err := New(Config{Scenario: sc, Workers: 2, Target: 200000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Violation
	if v == nil {
		t.Fatalf("no violation found in %d runs, the drop fault must break agreement", res.Runs())
	}
	if !v.Crashed {
		t.Fatalf("the counterexample must exercise the crash, got %q", v.Msg)
	}
	if len(v.Log.Records) == 0 {
		t.Fatal("counterexample log is empty")
	}
	if err := v.Log.Verify(); err != nil {
		t.Fatalf("counterexample log does not re-execute: %v", err)
	}

	path := filepath.Join(t.TempDir(), "counterexample.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Log.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := replay.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Records) != len(v.Log.Records) {
		t.Fatalf("round-trip lost records: %d != %d", len(loaded.Records), len(v.Log.Records))
	}
	if err := loaded.Verify(); err != nil {
		t.Fatalf("loaded counterexample does not re-execute: %v", err)
	}
	t.Logf("violation after %d runs: %s (|vec|=%d, %d records)",
		res.Runs(), v.Msg, len(v.Vec), len(v.Log.Records))
}

// TestDeterministicReplay re-runs one decision vector several times and
// checks the run is a pure function of the vector: same counts, same
// choices, same outcome. This is what makes counterexample capture and the
// stateless frontier sound.
func TestDeterministicReplay(t *testing.T) {
	e, err := New(Config{Scenario: DefaultScenario(), Workers: 1, POR: true})
	if err != nil {
		t.Fatal(err)
	}
	vec := []int{1, 0, 2, 0, 1}
	first := e.run(item{vec: vec}, nil, false)
	if first.err != nil {
		t.Fatalf("vector %v unexpectedly violates: %v", vec, first.err)
	}
	for i := 0; i < 3; i++ {
		again := e.run(item{vec: vec}, nil, false)
		if len(again.counts) != len(first.counts) || len(again.fullVec) != len(first.fullVec) {
			t.Fatalf("replay %d diverged: counts %v vs %v", i, again.counts, first.counts)
		}
		for j := range first.counts {
			if again.counts[j] != first.counts[j] {
				t.Fatalf("replay %d: branch count %d changed %d -> %d", i, j, first.counts[j], again.counts[j])
			}
		}
		for j := range first.fullVec {
			if again.fullVec[j] != first.fullVec[j] {
				t.Fatalf("replay %d: choice %d changed", i, j)
			}
		}
	}
}

// TestScenarioValidate exercises the scenario validation paths.
func TestScenarioValidate(t *testing.T) {
	good := DefaultScenario()
	if err := good.Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
	cases := []func(*Scenario){
		func(s *Scenario) { s.Nodes = 1 },
		func(s *Scenario) { s.Nodes = can.MaxNodes + 1 },
		func(s *Scenario) { s.MaxSteps = 0 },
		func(s *Scenario) { s.MaxDepth = 0 },
		func(s *Scenario) { s.Bootstrap = can.EmptySet },
		func(s *Scenario) { s.Joiners = s.Bootstrap },
		func(s *Scenario) { s.Crash = 63 },
	}
	for i, mut := range cases {
		sc := DefaultScenario()
		mut(&sc)
		if err := sc.Validate(); err == nil {
			t.Fatalf("case %d: invalid scenario accepted", i)
		}
	}
	if _, err := New(Config{Scenario: Scenario{}}); err == nil {
		t.Fatal("zero scenario accepted")
	}
}

// TestSnapshotSoundness is the checkpoint-and-branch A/B: the identical
// exploration run with snapshots on and off must walk the identical tree —
// same schedule, crash, prune, sleep and distinct-state counts — and reach
// the same verdict. Checkpoint resumption only changes how a run reaches
// its first new decision, never what it decides there.
func TestSnapshotSoundness(t *testing.T) {
	sc := DefaultScenario()
	sc.MaxDepth = 12
	for _, mode := range []struct {
		name  string
		prune bool
		por   bool
	}{{"naive", false, false}, {"reduced", true, true}} {
		snap, err := New(Config{Scenario: sc, Workers: 1, Prune: mode.prune, POR: mode.por})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := snap.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := New(Config{Scenario: sc, Workers: 1, Prune: mode.prune, POR: mode.por, NoSnapshot: true})
		if err != nil {
			t.Fatal(err)
		}
		rp, err := plain.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rs.Violation != nil || rp.Violation != nil {
			t.Fatalf("%s: unexpected violation (snap=%v plain=%v)", mode.name, rs.Violation, rp.Violation)
		}
		if !rs.Exhausted || !rp.Exhausted {
			t.Fatalf("%s: exhausted snap=%v plain=%v", mode.name, rs.Exhausted, rp.Exhausted)
		}
		if rs.Schedules != rp.Schedules || rs.CrashSchedules != rp.CrashSchedules ||
			rs.Pruned != rp.Pruned || rs.Slept != rp.Slept || rs.Distinct != rp.Distinct {
			t.Fatalf("%s: snapshot mode diverged: %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d "+
				"(schedules/crash/pruned/slept/distinct)", mode.name,
				rs.Schedules, rs.CrashSchedules, rs.Pruned, rs.Slept, rs.Distinct,
				rp.Schedules, rp.CrashSchedules, rp.Pruned, rp.Slept, rp.Distinct)
		}
		if rs.Resumed == 0 || rs.ReplaySaved == 0 {
			t.Fatalf("%s: snapshot arm never resumed a checkpoint (resumed=%d saved=%d)",
				mode.name, rs.Resumed, rs.ReplaySaved)
		}
		if rp.Resumed != 0 || rp.Snapshots != 0 {
			t.Fatalf("%s: -no-snapshot arm used checkpoints (resumed=%d captured=%d)",
				mode.name, rp.Resumed, rp.Snapshots)
		}
		// One way to resume a branch: every run but the root starts from
		// the checkpoint taken at its branch point.
		if rs.Resumed != rs.Runs()-1 {
			t.Fatalf("%s: %d of %d non-root runs resumed a checkpoint", mode.name, rs.Resumed, rs.Runs()-1)
		}
		t.Logf("%s: %d schedules, %d resumed, %d replay steps saved, %d snapshots",
			mode.name, rs.Schedules, rs.Resumed, rs.ReplaySaved, rs.Snapshots)
	}
}

// TestSettleShortcutSound pins the quiescence shortcut against the full
// settle phase: identical tree counts and identical verdicts with the
// shortcut on and off, in the healthy scenario and under the injected drop
// fault (where a violation must be found either way).
func TestSettleShortcutSound(t *testing.T) {
	sc := DefaultScenario()
	sc.MaxDepth = 8
	run := func(scen Scenario, disable bool) Result {
		t.Helper()
		e, err := New(Config{Scenario: scen, Workers: 1, Prune: true, POR: true})
		if err != nil {
			t.Fatal(err)
		}
		e.noQuiesce = disable
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fast, full := run(sc, false), run(sc, true)
	if fast.Violation != nil || full.Violation != nil {
		t.Fatalf("healthy scenario violated: fast=%v full=%v", fast.Violation, full.Violation)
	}
	if fast.Schedules != full.Schedules || fast.CrashSchedules != full.CrashSchedules ||
		fast.Pruned != full.Pruned || fast.Slept != full.Slept || fast.Distinct != full.Distinct {
		t.Fatalf("shortcut diverged: %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d",
			fast.Schedules, fast.CrashSchedules, fast.Pruned, fast.Slept, fast.Distinct,
			full.Schedules, full.CrashSchedules, full.Pruned, full.Slept, full.Distinct)
	}
	if fast.Steps >= full.Steps {
		t.Fatalf("shortcut saved nothing: %d steps vs %d", fast.Steps, full.Steps)
	}

	bad := sc
	bad.Drop = true
	bad.DropNode = 0
	bad.DropType = can.TypeFDA
	fastV, fullV := run(bad, false), run(bad, true)
	if fastV.Violation == nil || fullV.Violation == nil {
		t.Fatalf("drop fault missed: fast=%v full=%v", fastV.Violation, fullV.Violation)
	}
	if fastV.Violation.Msg != fullV.Violation.Msg {
		t.Fatalf("shortcut changed the counterexample: %q vs %q",
			fastV.Violation.Msg, fullV.Violation.Msg)
	}
}

// BenchmarkExploreSnapshot exhausts the depth-12 reduced tree per
// iteration, with checkpoint-and-branch on and off — the issue's headline
// comparison (O(1) state cloning vs O(depth) root replay, plus the
// deterministic-tail and quiescence fast paths shared by both arms).
func BenchmarkExploreSnapshot(b *testing.B) {
	sc := DefaultScenario()
	sc.MaxDepth = 12
	for _, mode := range []struct {
		name string
		off  bool
	}{{"checkpoint", false}, {"root-replay", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var sched, steps, saved uint64
			for i := 0; i < b.N; i++ {
				e, err := New(Config{Scenario: sc, Workers: 1, Prune: true, POR: true, NoSnapshot: mode.off})
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if res.Violation != nil || !res.Exhausted {
					b.Fatalf("violation=%v exhausted=%v", res.Violation, res.Exhausted)
				}
				sched, steps, saved = res.Schedules, res.Steps, res.ReplaySaved
			}
			b.ReportMetric(float64(sched)*float64(b.N)/b.Elapsed().Seconds(), "sched/s")
			b.ReportMetric(float64(steps), "steps/exhaust")
			b.ReportMetric(float64(saved), "saved-steps")
		})
	}
}

// BenchmarkSystemSnapshot measures one checkpoint capture: a deep copy of
// the whole system (every node's cores, the pending-frame arena, the timer
// wheel) — the constant that replaces O(depth) replay per branch.
func BenchmarkSystemSnapshot(b *testing.B) {
	sc := DefaultScenario()
	s, err := NewSystem(&sc, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if !s.stepFirst() {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Snapshot()
	}
}

// BenchmarkSystemRestore measures the allocation-free resume: restoring a
// checkpoint into recycled System storage.
func BenchmarkSystemRestore(b *testing.B) {
	sc := DefaultScenario()
	s, err := NewSystem(&sc, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if !s.stepFirst() {
			break
		}
	}
	dst := s.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Restore(s)
	}
}

// BenchmarkExploreThroughput measures naive single-worker schedule
// execution — the per-run cost that every reduction multiplies.
func BenchmarkExploreThroughput(b *testing.B) {
	e, err := New(Config{Scenario: DefaultScenario(), Workers: 1, Target: uint64(b.N)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := e.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if res.Violation != nil {
		b.Fatalf("violation: %s", res.Violation.Msg)
	}
	b.StopTimer()
	if res.Schedules > 0 {
		b.ReportMetric(float64(e.steps.Load())/float64(res.Schedules), "steps/schedule")
	}
}
