// Command compare regenerates the attribute comparison tables of the
// paper: Figure 1 (TTP vs standard CAN) and Figure 11 (TTP vs CAN vs
// CANELy), including the computed cells — the inaccessibility bounds from
// the scenario enumeration of [22] and the membership latency measured on
// the simulated CANELy stack.
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"canely/internal/analysis"
	"canely/internal/can"
	"canely/internal/experiments"
)

// report renders the full comparison study: the Figure 1 and Figure 11
// tables, the inaccessibility scenario enumerations and the response-time
// analysis of the protocol traffic.
func report(trials int, seed int64) string {
	var b strings.Builder

	fmt.Fprint(&b, analysis.Figure1())
	b.WriteString("\n")

	in := analysis.DefaultFigure11Inputs()
	lat := experiments.MeasureMembershipLatency(trials, seed)
	in.MembershipLatency = time.Duration(lat.Max())
	fmt.Fprint(&b, analysis.Figure11(in))
	b.WriteString("\n")

	b.WriteString("Inaccessibility scenario enumeration (after [22]):\n\n")
	b.WriteString("Native CAN:\n")
	b.WriteString(analysis.CANInaccessibility().FormatScenarios())
	b.WriteString("\n")
	b.WriteString("CANELy (inaccessibility control bounds the retransmission burst):\n")
	b.WriteString(analysis.CANELyInaccessibility().FormatScenarios())
	b.WriteString("\n")
	fmt.Fprintf(&b, "Measured membership latency over %d crash trials: n=%d min=%v mean=%v p99=%v max=%v\n",
		trials, lat.N(), time.Duration(lat.Min()), time.Duration(lat.Mean()),
		time.Duration(lat.Percentile(99)), time.Duration(lat.Max()))

	b.WriteString("\n")
	b.WriteString("MCAN4 response-time analysis of the protocol traffic (after [20]),\n")
	b.WriteString("8 nodes, Tb=10ms, Tm=50ms, 1 Mbit/s, CANELy inaccessibility charged:\n")
	_, hi := analysis.CANELyInaccessibility().Bounds()
	res, err := analysis.ResponseTimes(
		analysis.CANELyMessageSet(8, 10*time.Millisecond, 50*time.Millisecond),
		can.Rate1Mbps, can.FormatExtended, can.Rate1Mbps.DurationOf(hi))
	if err != nil {
		fmt.Fprintf(&b, "analysis failed: %v\n", err)
		return b.String()
	}
	b.WriteString(analysis.FormatResponseTimes(res))
	return b.String()
}

func main() {
	var (
		trials = flag.Int("trials", 10, "membership latency measurement trials")
		seed   = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	fmt.Print(report(*trials, *seed))
}
