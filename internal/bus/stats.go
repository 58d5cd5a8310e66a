package bus

import (
	"fmt"
	"strings"
	"time"

	"canely/internal/can"
)

// Stats accumulates wire occupancy and outcome counters. Per-type bit
// accounting is what the Figure 10 bandwidth measurement reduces. It is the
// one accumulator of every simulated medium — internal/bus, internal/fastbus
// and internal/datagram record into it through the Record methods — and a
// plain value copy is a snapshot.
type Stats struct {
	// FramesOK counts successfully completed physical frames.
	FramesOK int
	// FramesError counts consistently corrupted transmissions.
	FramesError int
	// FramesInconsistent counts transmissions hit in the last two bits.
	FramesInconsistent int

	// BitsBusy is the total wire occupancy in bit times: frames, error
	// frames and interframe spaces.
	BitsBusy int64
	// BitsByType attributes frame bits (including their recovery overhead)
	// to the CANELy message type that occupied the wire; slot 0 collects
	// frames whose identifier does not decode.
	BitsByType [can.NumMsgTypes]int64
	// ErrorBits is the wire time spent on error signalling and wasted
	// (corrupted) frames — the raw material of inaccessibility.
	ErrorBits int64
	// Inaccessibility is the accumulated time the bus was operational but
	// not providing useful service (error recovery), cf. [22].
	Inaccessibility time.Duration

	lastType can.MsgType
}

// typeOf classifies a frame for the per-type accounting.
func typeOf(f can.Frame) can.MsgType {
	mid, err := can.DecodeMID(f.ID)
	if err != nil {
		return 0
	}
	return mid.Type
}

// RecordSuccess accounts a successfully completed frame of the given length.
func (s *Stats) RecordSuccess(f can.Frame, bits int) {
	s.FramesOK++
	s.BitsBusy += int64(bits)
	s.lastType = typeOf(f)
	s.BitsByType[s.lastType] += int64(bits)
}

// RecordError accounts a consistently corrupted frame: its bits are wasted
// wire time.
func (s *Stats) RecordError(f can.Frame, bits int, r can.BitRate) {
	s.FramesError++
	s.BitsBusy += int64(bits)
	s.ErrorBits += int64(bits)
	s.lastType = typeOf(f)
	s.BitsByType[s.lastType] += int64(bits)
	s.Inaccessibility += r.DurationOf(bits)
}

// RecordInconsistent accounts a frame hit in its last two bits.
func (s *Stats) RecordInconsistent(f can.Frame, bits int) {
	s.FramesInconsistent++
	s.BitsBusy += int64(bits)
	s.lastType = typeOf(f)
	s.BitsByType[s.lastType] += int64(bits)
}

// RecordOverhead accounts trailing wire occupancy against the type of the
// last recorded frame; bits beyond the interframe space are error
// signalling and count toward inaccessibility.
func (s *Stats) RecordOverhead(bits int, r can.BitRate) {
	s.BitsBusy += int64(bits)
	s.BitsByType[s.lastType] += int64(bits)
	if bits > can.InterframeBits {
		err := bits - can.InterframeBits
		s.ErrorBits += int64(err)
		s.Inaccessibility += r.DurationOf(err)
	}
}

// Sub returns the difference s - earlier, for windowed measurements.
func (s Stats) Sub(earlier Stats) Stats {
	s.FramesOK -= earlier.FramesOK
	s.FramesError -= earlier.FramesError
	s.FramesInconsistent -= earlier.FramesInconsistent
	s.BitsBusy -= earlier.BitsBusy
	s.ErrorBits -= earlier.ErrorBits
	s.Inaccessibility -= earlier.Inaccessibility
	for t, v := range earlier.BitsByType {
		s.BitsByType[t] -= v
	}
	return s
}

// Utilization returns the fraction of the elapsed interval the bus was
// busy, at the given bit rate.
func (s Stats) Utilization(r can.BitRate, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.DurationOf(int(s.BitsBusy))) / float64(elapsed)
}

// TypeUtilization returns the fraction of the elapsed interval consumed by
// frames of the given types (including their recovery overhead).
func (s Stats) TypeUtilization(r can.BitRate, elapsed time.Duration, types ...can.MsgType) float64 {
	if elapsed <= 0 {
		return 0
	}
	var bits int64
	for _, t := range types {
		bits += s.BitsByType[t]
	}
	return float64(r.DurationOf(int(bits))) / float64(elapsed)
}

// String renders a compact multi-line summary: the totals, then every
// message type that occupied the wire, in type order.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "frames ok=%d err=%d incons=%d busy=%d bits (err=%d) inaccess=%v\n",
		s.FramesOK, s.FramesError, s.FramesInconsistent, s.BitsBusy, s.ErrorBits, s.Inaccessibility)
	for t, bits := range s.BitsByType {
		if bits != 0 {
			fmt.Fprintf(&sb, "  %-6v %d bits\n", can.MsgType(t), bits)
		}
	}
	return sb.String()
}
