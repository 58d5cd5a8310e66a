package fault

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/sim"
)

func ctxAt(now sim.Time, frame can.Frame, senders, receivers can.NodeSet, attempt int) TxContext {
	return TxContext{Now: now, Frame: frame, Senders: senders, Receivers: receivers, Attempt: attempt}
}

func elsFrame(r can.NodeID) can.Frame {
	return can.Frame{ID: can.ELSSign(r).Encode(), RTR: true}
}

func TestNoneInjectsNothing(t *testing.T) {
	var inj None
	d := inj.Decide(ctxAt(0, elsFrame(1), can.MakeSet(1), can.MakeSet(2, 3), 1))
	if !d.Clean() {
		t.Fatal("None must not inject")
	}
}

func TestStochasticRespectsOmissionDegree(t *testing.T) {
	rng := sim.NewRNG(11)
	inj := NewStochastic(rng, 1.0, 0, 2, 0, 10*time.Millisecond)
	var corrupted int
	for i := 0; i < 10; i++ {
		d := inj.Decide(ctxAt(sim.Time(i)*sim.Time(time.Millisecond), elsFrame(1), can.MakeSet(1), can.MakeSet(2), 1))
		if d.Corrupt {
			corrupted++
		}
	}
	if corrupted != 2 {
		t.Fatalf("corrupted = %d, want K=2 within one interval", corrupted)
	}
}

func TestStochasticWindowRollsOver(t *testing.T) {
	rng := sim.NewRNG(11)
	inj := NewStochastic(rng, 1.0, 0, 1, 0, 10*time.Millisecond)
	d1 := inj.Decide(ctxAt(0, elsFrame(1), can.MakeSet(1), can.MakeSet(2), 1))
	d2 := inj.Decide(ctxAt(sim.Time(time.Millisecond), elsFrame(1), can.MakeSet(1), can.MakeSet(2), 1))
	d3 := inj.Decide(ctxAt(sim.Time(11*time.Millisecond), elsFrame(1), can.MakeSet(1), can.MakeSet(2), 1))
	if !d1.Corrupt || d2.Corrupt || !d3.Corrupt {
		t.Fatalf("window accounting wrong: %v %v %v", d1.Corrupt, d2.Corrupt, d3.Corrupt)
	}
}

func TestStochasticInconsistentBoundedByJ(t *testing.T) {
	rng := sim.NewRNG(5)
	inj := NewStochastic(rng, 0, 1.0, 10, 2, 100*time.Millisecond)
	incons := 0
	for i := 0; i < 8; i++ {
		d := inj.Decide(ctxAt(sim.Time(i)*1000, elsFrame(1), can.MakeSet(1), can.MakeSet(2, 3, 4), 1))
		if !d.InconsistentVictims.Empty() {
			incons++
			if !d.InconsistentVictims.SubsetOf(can.MakeSet(2, 3, 4)) {
				t.Fatal("victims must be receivers")
			}
		}
	}
	if incons != 2 {
		t.Fatalf("inconsistent = %d, want J=2", incons)
	}
}

func TestStochasticNoReceiversNoInconsistency(t *testing.T) {
	rng := sim.NewRNG(5)
	inj := NewStochastic(rng, 0, 1.0, 10, 10, time.Second)
	d := inj.Decide(ctxAt(0, elsFrame(1), can.MakeSet(1), can.EmptySet, 1))
	if !d.Clean() {
		t.Fatal("no receivers: nothing to be inconsistent about")
	}
}

func TestStochasticDeterministicForSeed(t *testing.T) {
	run := func() []bool {
		inj := NewStochastic(sim.NewRNG(77), 0.5, 0.3, 100, 100, time.Second)
		var out []bool
		for i := 0; i < 50; i++ {
			d := inj.Decide(ctxAt(sim.Time(i)*1000, elsFrame(1), can.MakeSet(1), can.MakeSet(2, 3), 1))
			out = append(out, d.Clean())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("stochastic injector not reproducible")
		}
	}
}

func TestScriptOccurrence(t *testing.T) {
	s := NewScript(Rule{
		Match:      NewMatch(can.TypeELS),
		Occurrence: 2,
		Decision:   Decision{Corrupt: true},
	})
	ctx := ctxAt(0, elsFrame(3), can.MakeSet(3), can.MakeSet(1), 1)
	if d := s.Decide(ctx); !d.Clean() {
		t.Fatal("first occurrence should pass")
	}
	if d := s.Decide(ctx); !d.Corrupt {
		t.Fatal("second occurrence should corrupt")
	}
	if d := s.Decide(ctx); !d.Clean() {
		t.Fatal("rule should fire once")
	}
	if !s.Exhausted() {
		t.Fatal("script should be exhausted")
	}
}

func TestScriptRepeat(t *testing.T) {
	s := NewScript(Rule{
		Match:    NewMatch(can.TypeELS),
		Decision: Decision{Corrupt: true},
		Repeat:   true,
	})
	ctx := ctxAt(0, elsFrame(3), can.MakeSet(3), can.MakeSet(1), 1)
	for i := 0; i < 3; i++ {
		if d := s.Decide(ctx); !d.Corrupt {
			t.Fatal("repeating rule should always fire")
		}
	}
}

func TestScriptMatchFields(t *testing.T) {
	m := Match{Type: can.TypeFDA, Param: 3, Sender: 1, MinAttempt: 2}
	fda3 := can.Frame{ID: can.FDASign(3).Encode(), RTR: true}
	fda4 := can.Frame{ID: can.FDASign(4).Encode(), RTR: true}
	if m.matches(ctxAt(0, fda3, can.MakeSet(1), can.EmptySet, 1)) {
		t.Fatal("attempt 1 should not match MinAttempt 2")
	}
	if !m.matches(ctxAt(0, fda3, can.MakeSet(1), can.EmptySet, 2)) {
		t.Fatal("should match")
	}
	if m.matches(ctxAt(0, fda4, can.MakeSet(1), can.EmptySet, 2)) {
		t.Fatal("param mismatch should not match")
	}
	if m.matches(ctxAt(0, fda3, can.MakeSet(2), can.EmptySet, 2)) {
		t.Fatal("sender mismatch should not match")
	}
	// Wildcards.
	w := NewMatch(0)
	if !w.matches(ctxAt(0, fda4, can.MakeSet(9), can.EmptySet, 1)) {
		t.Fatal("wildcard match failed")
	}
}

func TestScriptInconsistentPlusCrashScenario(t *testing.T) {
	// The exact scenario of [18]: ELS from node 2 suffers a last-two-bit
	// error at node 5 and node 2 dies before retransmitting.
	s := NewScript(Rule{
		Match: Match{Type: can.TypeELS, Param: 2, Sender: AnySender},
		Decision: Decision{
			InconsistentVictims: can.MakeSet(5),
			CrashSenders:        true,
		},
	})
	d := s.Decide(ctxAt(0, elsFrame(2), can.MakeSet(2), can.MakeSet(1, 5), 1))
	if d.InconsistentVictims != can.MakeSet(5) || !d.CrashSenders {
		t.Fatalf("decision = %+v", d)
	}
}

func TestChainFirstNonCleanWins(t *testing.T) {
	s1 := NewScript() // empty: always clean
	s2 := NewScript(Rule{Match: NewMatch(0), Decision: Decision{Corrupt: true}, Repeat: true})
	c := Chain{s1, s2}
	d := c.Decide(ctxAt(0, elsFrame(1), can.MakeSet(1), can.MakeSet(2), 1))
	if !d.Corrupt {
		t.Fatal("chain should fall through to the scripted corrupt")
	}
}

func TestCountingTallies(t *testing.T) {
	inner := NewScript(
		Rule{Match: NewMatch(0), Occurrence: 1, Decision: Decision{Corrupt: true}},
		Rule{Match: NewMatch(0), Occurrence: 1, Decision: Decision{InconsistentVictims: can.MakeSet(2), CrashSenders: true}},
	)
	c := &Counting{Inner: inner}
	ctx := ctxAt(0, elsFrame(1), can.MakeSet(1), can.MakeSet(2), 1)
	c.Decide(ctx)
	c.Decide(ctx)
	c.Decide(ctx)
	if c.Transmissions != 3 || c.Corruptions != 1 || c.Inconsistent != 1 || c.SenderCrashes != 1 {
		t.Fatalf("counts = %+v", *c)
	}
}

func TestScriptPendingRules(t *testing.T) {
	s := NewScript(Rule{Match: NewMatch(can.TypeFDA), Occurrence: 3})
	if s.Exhausted() {
		t.Fatal("fresh script should not be exhausted")
	}
	if s.PendingRules() == "" {
		t.Fatal("pending rules should be reported")
	}
}

func TestScriptTargetsLowestValuedType(t *testing.T) {
	// TypeFDA holds the lowest assigned message-type value. Before AnyType
	// existed, 0 doubled as the wildcard, so no rule could ever single out
	// a type whose numeric value is 0 — and any future renumbering that
	// assigned 0 would silently turn a targeted rule into a catch-all.
	// A rule against the lowest type must fire on that type only.
	s := NewScript(Rule{
		Match:    NewMatch(can.TypeFDA),
		Decision: Decision{Corrupt: true},
		Repeat:   true,
	})
	els := ctxAt(0, elsFrame(3), can.MakeSet(3), can.EmptySet, 1)
	if d := s.Decide(els); !d.Clean() {
		t.Fatal("FDA rule fired on an ELS frame")
	}
	fda := ctxAt(0, can.Frame{ID: can.FDASign(3).Encode(), RTR: true}, can.MakeSet(1), can.EmptySet, 1)
	if d := s.Decide(fda); !d.Corrupt {
		t.Fatal("FDA rule did not fire on an FDA frame")
	}
}

func TestAnyTypeWildcard(t *testing.T) {
	// The explicit sentinel and the historical NewMatch(0) spelling both
	// wildcard the type; a literal zero Type no longer does.
	els := ctxAt(0, elsFrame(3), can.MakeSet(3), can.EmptySet, 1)
	if !(Match{Type: AnyType, Param: AnyParam, Sender: AnySender}).matches(els) {
		t.Fatal("AnyType should match every type")
	}
	if NewMatch(0) != NewMatch(AnyType) {
		t.Fatal("NewMatch(0) must keep meaning any type")
	}
	if (Match{Type: 0, Param: AnyParam, Sender: AnySender}).matches(els) {
		t.Fatal("a zero-Type literal must not wildcard")
	}
}

func TestSegmentScopedMatch(t *testing.T) {
	// The empty Segments set is the zero value, so every pre-federation
	// Match literal keeps matching transmissions regardless of tagging.
	els := ctxAt(0, elsFrame(3), can.MakeSet(3), can.EmptySet, 1)
	any := Match{Type: AnyType, Param: AnyParam, Sender: AnySender}
	if !any.matches(els) {
		t.Fatal("untagged transmission must match a segment-wildcard rule")
	}
	tagged := els
	tagged.Segments = can.MakeSet(2)
	if !any.matches(tagged) {
		t.Fatal("tagged transmission must match a segment-wildcard rule")
	}

	seg2 := Match{Type: AnyType, Param: AnyParam, Sender: AnySender, Segments: can.MakeSet(2)}
	if seg2.matches(els) {
		t.Fatal("segment-scoped rule fired on an untagged transmission")
	}
	if !seg2.matches(tagged) {
		t.Fatal("segment-scoped rule missed its own segment")
	}
	other := els
	other.Segments = can.MakeSet(3)
	if seg2.matches(other) {
		t.Fatal("segment-scoped rule fired on another segment")
	}
	// A multi-segment scope matches on any overlap.
	multi := Match{Type: AnyType, Param: AnyParam, Sender: AnySender, Segments: can.MakeSet(1, 2)}
	if !multi.matches(tagged) || multi.matches(other) {
		t.Fatal("multi-segment scope intersected wrongly")
	}
}

func TestTagDigestsTargetsOneSegmentsDigests(t *testing.T) {
	// The scripted segment-partition fault: on a backbone medium, corrupt
	// every digest summarizing segment 2, touch nothing else.
	script := NewScript(Rule{
		Match:    Match{Type: can.TypeFed, Param: AnyParam, Sender: AnySender, Segments: can.MakeSet(2)},
		Decision: Decision{Corrupt: true},
		Repeat:   true,
	})
	backbone := TagDigests{Inner: script}
	dig := func(seg can.NodeID, gw can.NodeID) TxContext {
		f := can.Frame{ID: can.FedDigestSign(seg, gw).Encode()}
		f.SetPayload(can.MakeSet(0, 1).Bytes())
		return ctxAt(0, f, can.MakeSet(gw), can.EmptySet, 1)
	}
	if d := backbone.Decide(dig(2, 4)); !d.Corrupt {
		t.Fatal("segment-2 digest not partitioned")
	}
	if d := backbone.Decide(dig(3, 6)); !d.Clean() {
		t.Fatal("segment-3 digest partitioned")
	}
	if d := backbone.Decide(ctxAt(0, elsFrame(1), can.MakeSet(1), can.EmptySet, 1)); !d.Clean() {
		t.Fatal("non-digest backbone frame partitioned")
	}
}

func TestMatchTargetsGatewayDigests(t *testing.T) {
	// The scripted gateway-crash fault: the Occurrence-th digest transmitted
	// by one gateway crashes it, digests from other gateways pass.
	script := NewScript(Rule{
		Match:      Match{Type: can.TypeFed, Param: AnyParam, Sender: 4},
		Occurrence: 2,
		Decision:   Decision{CrashSenders: true},
	})
	dig := func(gw can.NodeID) TxContext {
		f := can.Frame{ID: can.FedDigestSign(1, gw).Encode()}
		f.SetPayload(can.MakeSet(0).Bytes())
		return ctxAt(0, f, can.MakeSet(gw), can.EmptySet, 1)
	}
	if d := script.Decide(dig(5)); !d.Clean() {
		t.Fatal("rule fired on the wrong gateway")
	}
	if d := script.Decide(dig(4)); !d.Clean() {
		t.Fatal("rule fired before its occurrence")
	}
	if d := script.Decide(dig(4)); !d.CrashSenders {
		t.Fatal("rule did not crash the targeted gateway")
	}
}
