package stack

import (
	"fmt"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/fastbus"
	"canely/internal/fault"
	"canely/internal/sim"
	"canely/internal/trace"
)

// Substrate selects the simulation substrate under a stack.
type Substrate int

const (
	// BitAccurate is the internal/bus simulator: bit-time-accurate wire
	// accounting, full structured trace, per-type occupancy statistics.
	// The diagnostic substrate, and the default.
	BitAccurate Substrate = iota
	// Fast is the internal/fastbus frame-level substrate: identical MAC/LLC
	// semantics and timing resolution, no trace, counter-only statistics.
	// Roughly an order of magnitude more campaign runs per second.
	Fast
)

// String names the substrate as accepted by the CLIs' -substrate flag.
// Values outside the enumeration render as such instead of masquerading as
// the default substrate.
func (s Substrate) String() string {
	switch s {
	case BitAccurate:
		return "bit"
	case Fast:
		return "fast"
	}
	return fmt.Sprintf("substrate(%d)", int(s))
}

// ParseSubstrate parses a -substrate flag value ("bit" or "fast").
func ParseSubstrate(v string) (Substrate, error) {
	switch v {
	case "bit", "bit-accurate", "":
		return BitAccurate, nil
	case "fast", "fastbus":
		return Fast, nil
	}
	return 0, fmt.Errorf("stack: unknown substrate %q (want \"bit\" or \"fast\")", v)
}

// MediumConfig parameterizes a Medium.
type MediumConfig struct {
	// Substrate picks the implementation; the zero value is BitAccurate.
	Substrate Substrate
	// Rate is the signalling rate; defaults to 1 Mbit/s.
	Rate can.BitRate
	// Injector decides per-transmission faults; defaults to fault.None.
	Injector fault.Injector
	// Trace receives wire events on the bit-accurate substrate; the fast
	// substrate never traces.
	Trace *trace.Trace
}

// NewMedium builds a Medium on the given scheduler.
func NewMedium(sched *sim.Scheduler, cfg MediumConfig) Medium {
	switch cfg.Substrate {
	case Fast:
		return fastMedium{fastbus.New(sched, fastbus.Config{Rate: cfg.Rate, Injector: cfg.Injector})}
	default:
		return bitMedium{bus.New(sched, bus.Config{Rate: cfg.Rate, Injector: cfg.Injector, Trace: cfg.Trace})}
	}
}

// bitMedium adapts the bit-accurate bus to the Medium interface (the only
// impedance is Attach's concrete return type).
type bitMedium struct{ *bus.Bus }

func (m bitMedium) Attach(id can.NodeID) Port { return m.Bus.Attach(id) }

// fastMedium adapts the frame-level substrate.
type fastMedium struct{ *fastbus.Bus }

func (m fastMedium) Attach(id can.NodeID) Port { return m.Bus.Attach(id) }
