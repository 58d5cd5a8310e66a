package sim

import (
	"testing"
	"testing/quick"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.After(3*Millisecond, func() { got = append(got, 3) })
	s.After(1*Millisecond, func() { got = append(got, 1) })
	s.After(2*Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != Time(3*Millisecond) {
		t.Fatalf("Now = %v, want 3ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(Millisecond), func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	ev := s.After(Millisecond, func() { ran = true })
	if !ev.Pending() {
		t.Fatal("event should be pending")
	}
	if !ev.Cancel() {
		t.Fatal("Cancel should report live event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel should report dead event")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var got []Time
	s.After(Millisecond, func() {
		got = append(got, s.Now())
		s.After(Millisecond, func() { got = append(got, s.Now()) })
	})
	s.Run()
	if len(got) != 2 || got[0] != Time(Millisecond) || got[1] != Time(2*Millisecond) {
		t.Fatalf("nested schedule times = %v", got)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.After(2*Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(Time(Millisecond), func() {})
	})
	s.Run()
}

func TestRunUntilAdvancesTime(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(10*Millisecond, func() { fired = true })
	s.RunUntil(Time(5 * Millisecond))
	if fired {
		t.Fatal("future event fired early")
	}
	if s.Now() != Time(5*Millisecond) {
		t.Fatalf("Now = %v, want 5ms", s.Now())
	}
	s.RunFor(5 * Millisecond)
	if !fired {
		t.Fatal("event did not fire at its deadline")
	}
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(5*Millisecond, func() { fired = true })
	s.RunUntil(Time(5 * Millisecond))
	if !fired {
		t.Fatal("event at the RunUntil boundary should fire")
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 5; i++ {
		s.After(Duration(i)*Millisecond, func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2 (Run should stop)", count)
	}
	if s.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", s.Pending())
	}
}

func TestNextDeadline(t *testing.T) {
	s := NewScheduler()
	if s.NextDeadline() != Never {
		t.Fatal("empty scheduler should report Never")
	}
	ev := s.After(7*Millisecond, func() {})
	if s.NextDeadline() != Time(7*Millisecond) {
		t.Fatalf("NextDeadline = %v", s.NextDeadline())
	}
	ev.Cancel()
	if s.NextDeadline() != Never {
		t.Fatal("cancelled event should not be a deadline")
	}
}

func TestTimerStartStopRestart(t *testing.T) {
	s := NewScheduler()
	fires := 0
	tm := NewTimer(s, func() { fires++ })
	tm.Start(2 * Millisecond)
	if !tm.Armed() {
		t.Fatal("timer should be armed")
	}
	s.RunFor(Millisecond)
	tm.Start(2 * Millisecond) // re-arm: pushes deadline to t=3ms
	s.RunFor(Millisecond + 500*Microsecond)
	if fires != 0 {
		t.Fatal("re-armed timer fired at the old deadline")
	}
	s.RunFor(Millisecond)
	if fires != 1 {
		t.Fatalf("fires = %d, want 1", fires)
	}
	if tm.Armed() {
		t.Fatal("one-shot timer should disarm after expiry")
	}
	tm.Restart()
	s.RunFor(3 * Millisecond)
	if fires != 2 {
		t.Fatalf("fires after Restart = %d, want 2", fires)
	}
}

func TestTimerStopPreventsExpiry(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := NewTimer(s, func() { fired = true })
	tm.Start(Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop should report the timer was armed")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report disarmed")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerDeadline(t *testing.T) {
	s := NewScheduler()
	tm := NewTimer(s, func() {})
	if tm.Deadline() != Never {
		t.Fatal("disarmed timer should report Never")
	}
	tm.Start(4 * Millisecond)
	if tm.Deadline() != Time(4*Millisecond) {
		t.Fatalf("Deadline = %v, want 4ms", tm.Deadline())
	}
}

func TestTickerPeriodic(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	tk := NewTicker(s, func() { ticks = append(ticks, s.Now()) })
	tk.Start(10 * Millisecond)
	s.RunUntil(Time(35 * Millisecond))
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", ticks)
	}
	for i, at := range ticks {
		want := Time((i + 1) * 10 * int(Millisecond))
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	tk.Stop()
	s.RunUntil(Time(100 * Millisecond))
	if len(ticks) != 3 {
		t.Fatal("ticker kept ticking after Stop")
	}
}

func TestTickerStartAtPhase(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	tk := NewTicker(s, func() { ticks = append(ticks, s.Now()) })
	tk.StartAt(3*Millisecond, 10*Millisecond)
	s.RunUntil(Time(25 * Millisecond))
	if len(ticks) != 3 || ticks[0] != Time(3*Millisecond) || ticks[1] != Time(13*Millisecond) {
		t.Fatalf("phased ticks = %v", ticks)
	}
}

func TestTickerSelfStop(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tk *Ticker
	tk = NewTicker(s, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	tk.Start(Millisecond)
	s.Run()
	if n != 2 {
		t.Fatalf("n = %d, want 2 (self-stop)", n)
	}
	if tk.Running() {
		t.Fatal("ticker should not be running after self-stop")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Split("bus")
	b := root.Split("node/1")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams look correlated: %d identical draws", same)
	}
	// Split derivation must be stable.
	c := NewRNG(7).Split("bus")
	d := NewRNG(7).Split("bus")
	for i := 0; i < 16; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("Split not stable across instances")
		}
	}
}

// TestRNGSplitGolden pins child seeds: every stream in the repository (bus,
// fault scripts, datagram links) derives from Split, so a change in the
// derivation would silently shift every seeded run.
func TestRNGSplitGolden(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		name  string
		child int64
	}{
		{0, "bus", 27335066277015833},
		{0, "node/3", -1829175297501704209},
		{0, "link/0->47", -7991227666881069036},
		{0, "", -3750763034362895579},
		{1, "bus", 27335066277015832},
		{1, "node/3", -1829175297501704210},
		{1, "link/0->47", -7991227666881069035},
		{1, "", -3750763034362895580},
		{-1, "bus", -27335066277015834},
		{-1, "node/3", 1829175297501704208},
		{-1, "link/0->47", 7991227666881069035},
		{-1, "", 3750763034362895578},
		{1 << 62, "bus", 4639021084704403737},
		{1 << 62, "node/3", -6440861315929092113},
		{1 << 62, "link/0->47", -3379541648453681132},
		{1 << 62, "", -8362449052790283483},
		// seed == hash(""): the XOR is zero and the degenerate-seed guard
		// substitutes hash|1.
		{-3750763034362895579, "", -3750763034362895579},
	} {
		if got := NewRNG(tc.seed).Split(tc.name).Seed(); got != tc.child {
			t.Errorf("NewRNG(%d).Split(%q) seed %d, want %d", tc.seed, tc.name, got, tc.child)
		}
	}
	root := NewRNG(7)
	var sink *RNG
	if n := testing.AllocsPerRun(100, func() { sink = root.Split("link/0->47") }); n > 1 {
		t.Errorf("Split allocated %v objects, want at most 1 (the RNG)", n)
	}
	_ = sink
}

func TestRNGBoolEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 32; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGSubset(t *testing.T) {
	g := NewRNG(3)
	sub := g.Subset(10, 4)
	if len(sub) != 4 {
		t.Fatalf("subset size = %d", len(sub))
	}
	seen := map[int]bool{}
	for _, v := range sub {
		if v < 0 || v >= 10 {
			t.Fatalf("subset element %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("subset has duplicate %d", v)
		}
		seen[v] = true
	}
}

// Property: for any batch of non-negative delays, Run visits events in
// non-decreasing time order and ends with Now at the max delay.
func TestSchedulerMonotonicProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		s := NewScheduler()
		var visited []Time
		var max Duration
		for _, d16 := range delays {
			d := Duration(d16) * Microsecond
			if d > max {
				max = d
			}
			s.After(d, func() { visited = append(visited, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(visited); i++ {
			if visited[i] < visited[i-1] {
				return false
			}
		}
		return len(delays) == 0 || s.Now() == Time(max)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RNG.Duration(d) draws stay inside [0, d).
func TestRNGDurationRangeProperty(t *testing.T) {
	g := NewRNG(99)
	prop := func(d32 uint32) bool {
		d := Duration(d32) + 1
		v := g.Duration(d)
		return v >= 0 && v < d
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(5 * Millisecond)
	if t0 != Time(5*Millisecond) {
		t.Fatalf("Add = %v", t0)
	}
	if t0.Sub(Time(2*Millisecond)) != 3*Millisecond {
		t.Fatal("Sub wrong")
	}
	if !Time(1).Before(Time(2)) || !Time(2).After(Time(1)) {
		t.Fatal("Before/After wrong")
	}
	if Never.String() != "never" {
		t.Fatal("Never.String")
	}
}

func TestAccessorsAndGuards(t *testing.T) {
	s := NewScheduler()
	if s.Fired() != 0 {
		t.Fatal("fresh scheduler fired events")
	}
	ev := s.After(Millisecond, func() {})
	if ev.When() != Time(Millisecond) {
		t.Fatalf("When = %v", ev.When())
	}
	var zeroEv Event
	if zeroEv.When() != Never || zeroEv.Pending() || zeroEv.Cancel() {
		t.Fatal("zero event accessors wrong")
	}
	s.Run()
	if s.Fired() != 1 {
		t.Fatalf("Fired = %d", s.Fired())
	}
	// Guard panics.
	for _, fn := range []func(){
		func() { s.After(-1, func() {}) },
		func() { s.At(s.Now(), nil) },
		func() { NewTimer(nil, func() {}) },
		func() { NewTimer(s, nil) },
		func() { NewTicker(nil, func() {}) },
		func() { NewTicker(s, nil) },
		func() { NewTimer(s, func() {}).Restart() },
		func() { NewTicker(s, func() {}).Start(0) },
		func() { NewTicker(s, func() {}).StartAt(-1, Millisecond) },
		func() { NewTicker(s, func() {}).StartAt(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRNGDrawSurface(t *testing.T) {
	g := NewRNG(5)
	if g.Seed() != 5 {
		t.Fatal("Seed accessor wrong")
	}
	if v := g.Float64(); v < 0 || v >= 1 {
		t.Fatalf("Float64 = %f", v)
	}
	if v := g.Intn(10); v < 0 || v >= 10 {
		t.Fatalf("Intn = %d", v)
	}
	if p := g.Perm(5); len(p) != 5 {
		t.Fatalf("Perm = %v", p)
	}
	if v := g.Pick(3); v < 0 || v >= 3 {
		t.Fatalf("Pick = %d", v)
	}
	if g.Duration(0) != 0 {
		t.Fatal("Duration(0) should be 0")
	}
	for _, fn := range []func(){
		func() { g.Pick(0) },
		func() { g.Subset(3, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// The handle-validity contract against the arena storage: a handle kept
// past its event's lifetime must degrade to a no-op, never reach into a
// recycled slot.

func TestHandleCancelAfterFire(t *testing.T) {
	s := NewScheduler()
	fired := false
	ev := s.After(Millisecond, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if ev.Cancel() {
		t.Fatal("Cancel after fire reported a live event")
	}
	if ev.Pending() {
		t.Fatal("fired event still pending")
	}
	if ev.When() != Never {
		t.Fatalf("stale When = %v, want Never", ev.When())
	}
}

func TestHandleReuseStaleCancelIsNoOp(t *testing.T) {
	// Fire an event, then keep scheduling until its arena slot is reused.
	// The stale handle must not cancel (or even observe) the new tenant.
	s := NewScheduler()
	stale := s.After(Millisecond, func() {})
	s.Run()

	// The freed slot is handed to the next At; the stale handle's
	// generation no longer matches.
	ran := false
	fresh := s.After(Millisecond, func() { ran = true })
	if stale.Cancel() {
		t.Fatal("stale Cancel reported success")
	}
	if stale.Pending() {
		t.Fatal("stale handle claims pending")
	}
	if !fresh.Pending() {
		t.Fatal("stale Cancel killed an unrelated event")
	}
	s.Run()
	if !ran {
		t.Fatal("reused-slot event did not fire")
	}
}

func TestHandleStaleAcrossCancelReap(t *testing.T) {
	// Cancelled-then-reaped slots go through the same generation bump.
	s := NewScheduler()
	ev := s.After(Millisecond, func() { t.Fatal("cancelled event ran") })
	if !ev.Cancel() {
		t.Fatal("first Cancel should succeed")
	}
	s.Run() // reaps the cancelled entry, recycling the slot
	ran := false
	fresh := s.After(Millisecond, func() { ran = true })
	if ev.Cancel() || ev.Pending() {
		t.Fatal("handle survived reap")
	}
	s.Run()
	if !ran || fresh.Pending() {
		t.Fatal("fresh event disturbed by stale handle")
	}
}

func TestSchedulerResetInvalidatesHandles(t *testing.T) {
	s := NewScheduler()
	ev := s.After(Millisecond, func() { t.Fatal("pre-Reset event survived Reset") })
	s.Reset()
	if ev.Cancel() || ev.Pending() || ev.When() != Never {
		t.Fatal("pre-Reset handle still live")
	}
	if s.Now() != 0 || s.Fired() != 0 || s.Pending() != 0 {
		t.Fatalf("Reset state: now=%v fired=%d pending=%d", s.Now(), s.Fired(), s.Pending())
	}
	// The reset scheduler must behave exactly like a fresh one.
	var got []int
	s.After(2*Millisecond, func() { got = append(got, 2) })
	s.After(Millisecond, func() { got = append(got, 1) })
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("post-Reset order = %v", got)
	}
	if s.Now() != Time(2*Millisecond) {
		t.Fatalf("post-Reset Now = %v", s.Now())
	}
}

func TestSchedulerResetReusesArena(t *testing.T) {
	// After a warm-up run, Reset + an equal-sized run must not allocate:
	// the arena, heap and free list retain their capacity.
	s := NewScheduler()
	load := func() {
		for i := 0; i < 64; i++ {
			d := Duration(i+1) * Microsecond
			s.After(d, func() {})
		}
		s.Run()
	}
	load()
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		load()
	})
	if allocs > 0 {
		t.Fatalf("Reset+run allocated %v times per run, want 0", allocs)
	}
}

func TestTimerShortenWithPendingPlaceholder(t *testing.T) {
	// Lazy restart keeps a placeholder event queued at the *old* deadline.
	// Shortening the timer must not trust that placeholder: Start with a
	// shorter duration has to cancel it and fire at the new, earlier
	// deadline.
	s := NewScheduler()
	var firedAt Time
	fires := 0
	tm := NewTimer(s, func() { fires++; firedAt = s.Now() })
	tm.Start(10 * Millisecond) // placeholder queued at t=10ms
	tm.Start(2 * Millisecond)  // earlier deadline: placeholder unusable
	if got := tm.Deadline(); got != Time(2*Millisecond) {
		t.Fatalf("Deadline = %v, want 2ms", got)
	}
	s.RunFor(2 * Millisecond)
	if fires != 1 {
		t.Fatalf("fires at t=2ms = %d, want 1 (timer stuck on old placeholder)", fires)
	}
	if firedAt != Time(2*Millisecond) {
		t.Fatalf("fired at %v, want 2ms", firedAt)
	}
	s.RunFor(20 * Millisecond) // the cancelled 10ms placeholder must be inert
	if fires != 1 {
		t.Fatalf("fires after draining = %d, want 1", fires)
	}
}

func TestTimerShortenAfterLazyRestart(t *testing.T) {
	// Same edge reached through the lazy path: a restart that *lengthens* the
	// deadline leaves the placeholder at the old instant (ev.When() <
	// deadline), and only then is the timer shortened to a deadline that is
	// earlier than the pending placeholder.
	s := NewScheduler()
	fires := 0
	var firedAt Time
	tm := NewTimer(s, func() { fires++; firedAt = s.Now() })
	tm.Start(5 * Millisecond) // placeholder at t=5ms
	s.RunFor(Millisecond)
	tm.Start(10 * Millisecond) // lazy: placeholder stays at t=5ms, deadline t=11ms
	if got := tm.Deadline(); got != Time(11*Millisecond) {
		t.Fatalf("Deadline = %v, want 11ms", got)
	}
	s.RunFor(Millisecond) // t=2ms
	tm.Start(Millisecond) // deadline t=3ms, earlier than the t=5ms placeholder
	s.RunFor(Millisecond) // t=3ms
	if fires != 1 || firedAt != Time(3*Millisecond) {
		t.Fatalf("fires=%d at %v, want 1 at 3ms", fires, firedAt)
	}
	s.RunFor(20 * Millisecond)
	if fires != 1 {
		t.Fatalf("fires after draining = %d, want 1", fires)
	}
}
