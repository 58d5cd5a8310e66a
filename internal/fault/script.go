package fault

import (
	"fmt"
	"strings"

	"canely/internal/can"
)

// Match selects transmissions for a scripted fault.
type Match struct {
	// Type restricts to one CANELy message type. Use AnyType to match all;
	// a zero Type matches only the (currently unassigned) type value 0, so
	// a script targeting whatever type holds the lowest numeric value is
	// expressible.
	Type can.MsgType
	// Param restricts the mid parameter (e.g. the failed/joining node id).
	// Use AnyParam to match all.
	Param int
	// Sender restricts to transmissions that include this node among the
	// senders. Use AnySender to match all.
	Sender int
	// MinAttempt restricts to retransmissions (attempt >= MinAttempt);
	// zero matches the first attempt onward.
	MinAttempt int
	// Segments restricts to transmissions tagged with at least one of these
	// federation segments (see TxContext.Segments and TagDigests). The empty
	// set — the zero value, so every pre-federation Match literal keeps its
	// meaning — matches any transmission, tagged or not.
	Segments can.NodeSet
}

// Wildcards for Match fields.
const (
	// AnyType matches every message type. The sentinel lies outside the
	// 5-bit range a MID can encode, so it can never collide with a real
	// type the way the former 0-means-any convention could.
	AnyType   can.MsgType = 0xFF
	AnyParam              = -1
	AnySender             = -1
)

// NewMatch returns a Match with wildcard param and sender, restricted to a
// message type. NewMatch(0) keeps its historical meaning of "any type";
// use a Match literal to target type value 0 itself.
func NewMatch(t can.MsgType) Match {
	if t == 0 {
		t = AnyType
	}
	return Match{Type: t, Param: AnyParam, Sender: AnySender}
}

func (m Match) matches(ctx TxContext) bool {
	mid, err := can.DecodeMID(ctx.Frame.ID)
	if err != nil {
		return false
	}
	if m.Type != AnyType && mid.Type != m.Type {
		return false
	}
	if m.Param != AnyParam && int(mid.Param) != m.Param {
		return false
	}
	if m.Sender != AnySender && !ctx.Senders.Contains(can.NodeID(m.Sender)) {
		return false
	}
	if m.MinAttempt != 0 && ctx.Attempt < m.MinAttempt {
		return false
	}
	if !m.Segments.Empty() && m.Segments.Intersect(ctx.Segments).Empty() {
		return false
	}
	return true
}

// Rule is one scripted fault: the Occurrence-th transmission matching Match
// suffers Decision. Occurrence counts from 1.
type Rule struct {
	Match      Match
	Occurrence int
	Decision   Decision
	// Repeat applies the decision to every match from Occurrence onward
	// instead of only once.
	Repeat bool

	seen  int
	fired bool
}

// Script is a deterministic, ordered fault program. It implements Injector.
// Rules are evaluated in order; the first rule that fires decides the
// transmission (at most one rule fires per transmission).
type Script struct {
	rules []*Rule
}

// NewScript builds a script from the given rules.
func NewScript(rules ...Rule) *Script {
	s := &Script{}
	for i := range rules {
		r := rules[i]
		if r.Occurrence <= 0 {
			r.Occurrence = 1
		}
		s.rules = append(s.rules, &r)
	}
	return s
}

// Add appends a rule to the script.
func (s *Script) Add(r Rule) {
	if r.Occurrence <= 0 {
		r.Occurrence = 1
	}
	s.rules = append(s.rules, &r)
}

// Decide implements Injector.
func (s *Script) Decide(ctx TxContext) Decision {
	for _, r := range s.rules {
		if r.fired && !r.Repeat {
			continue
		}
		if !r.Match.matches(ctx) {
			continue
		}
		r.seen++
		if r.seen < r.Occurrence {
			continue
		}
		r.fired = true
		return r.Decision
	}
	return Decision{}
}

// Exhausted reports whether every non-repeating rule has fired — useful for
// tests asserting a scenario actually happened.
func (s *Script) Exhausted() bool {
	for _, r := range s.rules {
		if !r.fired {
			return false
		}
	}
	return true
}

// PendingRules lists indices of rules that have not fired, for diagnostics.
func (s *Script) PendingRules() string {
	var parts []string
	for i, r := range s.rules {
		if !r.fired {
			parts = append(parts, fmt.Sprintf("#%d(%v,occ=%d,seen=%d)", i, r.Match.Type, r.Occurrence, r.seen))
		}
	}
	return strings.Join(parts, " ")
}

var _ Injector = (*Script)(nil)

// Chain composes injectors: the first non-clean decision wins. This lets a
// test overlay a deterministic script on top of background stochastic noise.
type Chain []Injector

// Decide implements Injector.
func (c Chain) Decide(ctx TxContext) Decision {
	for _, inj := range c {
		if d := inj.Decide(ctx); !d.Clean() {
			return d
		}
	}
	return Decision{}
}

var _ Injector = Chain(nil)

// Counting wraps an injector and tallies what was injected, for assertions
// and experiment reports.
type Counting struct {
	Inner Injector

	Transmissions int
	Corruptions   int
	Inconsistent  int
	SenderCrashes int
}

// Decide implements Injector.
func (c *Counting) Decide(ctx TxContext) Decision {
	c.Transmissions++
	d := c.Inner.Decide(ctx)
	if d.Corrupt {
		c.Corruptions++
	}
	if !d.InconsistentVictims.Empty() {
		c.Inconsistent++
	}
	if d.CrashSenders {
		c.SenderCrashes++
	}
	return d
}

var _ Injector = (*Counting)(nil)
