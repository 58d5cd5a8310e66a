// Package fault implements the failure semantics of the CANELy system model
// (paper §4) as injectable behaviour for the simulated bus:
//
//   - consistent omissions: a transmission is corrupted for every receiver,
//     detected by CAN error signalling and masked by retransmission
//     (properties MCAN2/MCAN3);
//   - inconsistent omissions: faults hitting the last two bits of a frame
//     leave a subset of receivers without the frame while the others accept
//     it, producing duplicates on recovery or — if the sender dies before
//     retransmitting — an inconsistent message omission (property LCAN4);
//   - sender crashes, optionally coupled to a transmission so the exact
//     scenario of [18] can be scripted;
//   - bounded omission degree: stochastic injection respects the k and j
//     bounds per reference interval that the protocols are parameterized
//     with.
//
// Injection decisions are made per physical transmission through the
// Injector interface; the bus applies them.
package fault

import (
	"time"

	"canely/internal/can"
	"canely/internal/sim"
)

// TxContext describes one physical transmission about to complete on the
// bus. Senders is the set of transmitters (more than one when identical
// remote frames clustered); Receivers is the set of live listening nodes,
// excluding the senders.
type TxContext struct {
	Now       sim.Time
	Frame     can.Frame
	Senders   can.NodeSet
	Receivers can.NodeSet
	// Attempt counts transmissions of this queued request, starting at 1.
	Attempt int
	// Segments identifies the federation segment(s) this transmission
	// belongs to. The simulated media know nothing about segments, so the
	// set is empty unless a TagDigests injector wraps a backbone medium's
	// injector and tags each digest with the segment it summarizes (its mid
	// param).
	Segments can.NodeSet
}

// Decision is the outcome imposed on a transmission.
type Decision struct {
	// Corrupt marks a consistent corruption: every node observes the error,
	// an error frame follows and the frame is retransmitted automatically.
	Corrupt bool
	// InconsistentVictims lists receivers hit in the last two bits: they do
	// not accept the frame, everyone else does, and the senders schedule a
	// retransmission (duplicates at the non-victims). Ignored when Corrupt.
	InconsistentVictims can.NodeSet
	// CrashSenders kills the transmitting node(s) immediately after this
	// transmission, i.e. before any retransmission — combined with
	// InconsistentVictims this is the inconsistent-omission scenario.
	CrashSenders bool
	// OverloadFrames appends reactive overload frames after an otherwise
	// successful transmission, delaying the next start of frame — one of
	// the inaccessibility events enumerated in [22]. ISO 11898 permits at
	// most two consecutive overload frames; the bus clamps accordingly.
	OverloadFrames int
}

// Clean reports whether the decision leaves the transmission untouched.
func (d Decision) Clean() bool {
	return !d.Corrupt && d.InconsistentVictims.Empty() && !d.CrashSenders &&
		d.OverloadFrames == 0
}

// Injector decides the fate of each physical transmission.
type Injector interface {
	Decide(ctx TxContext) Decision
}

// None is an Injector that never injects faults.
type None struct{}

// Decide implements Injector.
func (None) Decide(TxContext) Decision { return Decision{} }

var _ Injector = None{}

// Stochastic injects faults at configured per-transmission probabilities
// while honouring the bounded omission degrees of the system model: no more
// than K omissions and no more than J inconsistent omissions per reference
// interval. The zero value injects nothing; use NewStochastic.
type Stochastic struct {
	rng *sim.RNG

	// PCorrupt is the per-transmission probability of a consistent
	// corruption.
	PCorrupt float64
	// PInconsistent is the per-transmission probability of an error in the
	// last two bits at a random, non-empty, proper subset of receivers.
	PInconsistent float64
	// K bounds total omissions per reference interval (MCAN3). Zero means
	// no faults of that class.
	K int
	// J bounds inconsistent omissions per reference interval (LCAN4).
	J int
	// Interval is the reference interval for the K and J bounds.
	Interval time.Duration

	windowStart  sim.Time
	omissions    int
	inconsistent int
}

// NewStochastic builds a stochastic injector with the given fault rates and
// degree bounds over the reference interval.
func NewStochastic(rng *sim.RNG, pCorrupt, pInconsistent float64, k, j int, interval time.Duration) *Stochastic {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &Stochastic{
		rng:           rng,
		PCorrupt:      pCorrupt,
		PInconsistent: pInconsistent,
		K:             k,
		J:             j,
		Interval:      interval,
	}
}

// Decide implements Injector.
func (s *Stochastic) Decide(ctx TxContext) Decision {
	if s.rng == nil {
		return Decision{}
	}
	s.roll(ctx.Now)
	if s.omissions >= s.K {
		return Decision{}
	}
	if s.rng.Bool(s.PCorrupt) {
		s.omissions++
		return Decision{Corrupt: true}
	}
	if s.inconsistent < s.J && !ctx.Receivers.Empty() && s.rng.Bool(s.PInconsistent) {
		victims := s.pickVictims(ctx.Receivers)
		if !victims.Empty() {
			s.omissions++
			s.inconsistent++
			return Decision{InconsistentVictims: victims}
		}
	}
	return Decision{}
}

// roll advances the degree-bound accounting window.
func (s *Stochastic) roll(now sim.Time) {
	for now.Sub(s.windowStart) >= s.Interval {
		s.windowStart = s.windowStart.Add(s.Interval)
		s.omissions = 0
		s.inconsistent = 0
	}
}

// pickVictims chooses a non-empty subset of receivers, biased toward small
// subsets (the paper notes the victim set "may have only one element").
func (s *Stochastic) pickVictims(receivers can.NodeSet) can.NodeSet {
	ids := receivers.IDs()
	if len(ids) == 0 {
		return can.EmptySet
	}
	n := 1
	for n < len(ids) && s.rng.Bool(0.3) {
		n++
	}
	var out can.NodeSet
	for _, i := range s.rng.Subset(len(ids), n) {
		out = out.Add(ids[i])
	}
	return out
}

var _ Injector = (*Stochastic)(nil)
