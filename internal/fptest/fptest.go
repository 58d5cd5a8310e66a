// Package fptest is the test kit for proto.Machine implementations. It
// checks the Fingerprint contract every sans-I/O protocol core honours: the
// fingerprint is a pure function of the core's observable state (equal
// states hash equal — the exploration engine's state-hash pruning is
// unsound otherwise) and covers all of it (every state-mutating step
// perturbs the hash — a silently un-fingerprinted field would let the
// engine prune two genuinely different states against each other and skip
// the schedules separating them).
package fptest

import (
	"hash/maphash"
	"testing"

	"canely/internal/core/proto"
)

// Emit steps m on ev and returns the commands it produced as a fresh
// slice, nil when the event caused no action — the one-shot form tests
// want, where production code reuses a CommandBuf across steps.
func Emit(m proto.Machine, ev proto.Event) []proto.Command {
	var buf proto.CommandBuf
	m.StepInto(ev, &buf)
	return buf.Commands()
}

// Step is one scripted event together with the expected effect on the
// fingerprint: Mutates marks steps that change observable state and must
// perturb the hash; unmarked steps must leave it untouched (absorbed
// events, idempotent re-deliveries).
type Step struct {
	Name    string
	Ev      proto.Event
	Mutates bool
}

// hasher returns a fingerprint function under a fresh seed.
func hasher() func(proto.Machine) uint64 {
	seed := maphash.MakeSeed()
	return func(m proto.Machine) uint64 {
		var h maphash.Hash
		h.SetSeed(seed)
		m.Fingerprint(&h)
		return h.Sum64()
	}
}

// CheckClone checks the Clone contract the exploration engine's
// checkpoint-and-branch machinery rests on, at every split point of the
// script: a clone taken after k steps must hash identically to its
// original (Clone ⇒ equal observable state — fingerprint equality is the
// proof obligation that makes checkpoint resumption sound), stepping the
// clone through the script's remainder must track the reference
// trajectory step for step (the clone is a full peer, not a shallow
// view), and must leave the original's fingerprint untouched (no aliased
// mutable state).
func CheckClone(t *testing.T, fresh func() proto.Machine, clone func(proto.Machine) proto.Machine, script []Step) {
	t.Helper()
	sum := hasher()

	// Reference trajectory: the uncloned run's fingerprint at every prefix.
	ref := fresh()
	fps := []uint64{sum(ref)}
	var buf proto.CommandBuf
	for _, st := range script {
		buf.Reset()
		ref.StepInto(st.Ev, &buf)
		fps = append(fps, sum(ref))
	}

	for k := 0; k <= len(script); k++ {
		a := fresh()
		for _, st := range script[:k] {
			buf.Reset()
			a.StepInto(st.Ev, &buf)
		}
		c := clone(a)
		if got := sum(c); got != fps[k] {
			t.Errorf("clone at step %d hashes %#x, the original state hashes %#x", k, got, fps[k])
			continue
		}
		for i, st := range script[k:] {
			buf.Reset()
			c.StepInto(st.Ev, &buf)
			if got := sum(c); got != fps[k+i+1] {
				t.Errorf("clone taken at step %d diverged from the reference after step %d (%s): %#x vs %#x",
					k, k+i, st.Name, got, fps[k+i+1])
				break
			}
			if got := sum(a); got != fps[k] {
				t.Errorf("stepping a clone taken at step %d mutated the original at step %d (%s): aliased state",
					k, k+i, st.Name)
				break
			}
		}
	}
}

// Check drives a fresh core through the script asserting the perturbation
// property at every step, then replays the identical script on a second
// fresh core and asserts fingerprint equality at every prefix — two cores
// that processed the same events are in equal states and must hash equal.
func Check(t *testing.T, fresh func() proto.Machine, script []Step) {
	t.Helper()
	sum := hasher()

	a := fresh()
	fps := []uint64{sum(a)}
	var buf proto.CommandBuf
	for i, st := range script {
		buf.Reset()
		a.StepInto(st.Ev, &buf)
		fp := sum(a)
		prev := fps[len(fps)-1]
		if st.Mutates && fp == prev {
			t.Errorf("step %d (%s): state-mutating step left the fingerprint unchanged", i, st.Name)
		}
		if !st.Mutates && fp != prev {
			t.Errorf("step %d (%s): step marked non-mutating perturbed the fingerprint", i, st.Name)
		}
		fps = append(fps, fp)
	}

	b := fresh()
	if got := sum(b); got != fps[0] {
		t.Errorf("fresh cores disagree: %#x vs %#x", got, fps[0])
	}
	for i, st := range script {
		buf.Reset()
		b.StepInto(st.Ev, &buf)
		if got := sum(b); got != fps[i+1] {
			t.Errorf("step %d (%s): replay reached fingerprint %#x, original run had %#x",
				i, st.Name, got, fps[i+1])
		}
	}
}
