package experiments

import (
	"strings"
	"testing"
	"time"

	"canely"
	"canely/internal/analysis"
	"canely/internal/campaign"
)

func TestMeasuredFigure10ShapeMatchesAnalysis(t *testing.T) {
	cfg := DefaultFigure10Config()
	// Two x-axis points keep the test fast; the full sweep runs in the
	// benchmark harness.
	points := MeasureFigure10(cfg, []time.Duration{30 * time.Millisecond, 90 * time.Millisecond})
	if len(points) != 8 {
		t.Fatalf("points = %d, want 8 (2 Tm x 4 series)", len(points))
	}
	byKey := map[[2]int]Figure10Point{}
	for _, p := range points {
		tmMs := int(p.Tm / time.Millisecond)
		byKey[[2]int{tmMs, int(p.Series)}] = p
		if p.Measured <= 0 {
			t.Fatalf("measured utilization is zero for %v/%v", p.Tm, p.Series)
		}
		// The analysis is a deliberate worst case: measurements must stay
		// at or below it (allowing a little slack for the ELS alignment).
		if p.Measured > p.Analytical*1.25 {
			t.Fatalf("measured %.4f far above analytical %.4f for %v/%v",
				p.Measured, p.Analytical, p.Tm, p.Series)
		}
	}
	// Curve ordering holds in the measurements at Tm=30ms.
	for s := 0; s < 3; s++ {
		lo := byKey[[2]int{30, s}].Measured
		hi := byKey[[2]int{30, s + 1}].Measured
		if lo >= hi {
			t.Fatalf("measured ordering violated: series %d (%.4f) >= series %d (%.4f)",
				s, lo, s+1, hi)
		}
	}
	// 1/Tm decay: each series shrinks from 30ms to 90ms.
	for s := 0; s < 4; s++ {
		if byKey[[2]int{90, s}].Measured >= byKey[[2]int{30, s}].Measured {
			t.Fatalf("series %d does not decay with Tm", s)
		}
	}
}

func TestFormatFigure10(t *testing.T) {
	points := []Figure10Point{{Tm: 30 * time.Millisecond, Series: analysis.SeriesNoChanges,
		Analytical: 0.015, Measured: 0.012}}
	out := FormatFigure10(points)
	if !strings.Contains(out, "no msh. changes") || !strings.Contains(out, "1.50%") {
		t.Fatalf("format = %q", out)
	}
}

func TestLatencyComparisonReproducesSection66(t *testing.T) {
	cfg := DefaultLatencyConfig()
	cfg.Trials = 5
	results := MeasureAllLatencies(cfg)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	byScheme := map[string]LatencyResult{}
	for _, r := range results {
		byScheme[r.Scheme] = r
		if r.Measured.N() != cfg.Trials {
			t.Fatalf("%s measured %d trials, want %d", r.Scheme, r.Measured.N(), cfg.Trials)
		}
		if r.Measured.Max() > float64(r.Bound) {
			t.Fatalf("%s max %v exceeds model bound %v", r.Scheme, time.Duration(r.Measured.Max()), r.Bound)
		}
	}
	ely := byScheme["CANELy"].Measured
	osek := byScheme["OSEK NM"].Measured
	nmt := byScheme["CANopen guarding"].Measured
	// The paper's headline: CANELy detects in tens of ms, OSEK in the
	// order of a second — a 10x+ gap; guarding sits between.
	if ely.Max() > float64(50*time.Millisecond) {
		t.Fatalf("CANELy max latency %v, want tens of ms", time.Duration(ely.Max()))
	}
	if osek.Mean() < float64(100*time.Millisecond) {
		t.Fatalf("OSEK mean latency %v implausibly low", time.Duration(osek.Mean()))
	}
	if osek.Mean() < 10*ely.Mean() {
		t.Fatalf("CANELy/OSEK gap too small: %v vs %v", ely.Mean(), osek.Mean())
	}
	if nmt.Mean() <= ely.Mean() || nmt.Mean() >= osek.Max() {
		t.Fatalf("CANopen %v should sit between CANELy %v and OSEK %v",
			nmt.Mean(), ely.Mean(), osek.Max())
	}
	if !strings.Contains(FormatLatencies(results), "OSEK NM") {
		t.Fatal("format incomplete")
	}
	// TTP's one-round detection with 1 ms slots sits in CANELy's class.
	ttp := byScheme["TTP (TDMA model)"].Measured
	if ttp.Max() > float64(20*time.Millisecond) {
		t.Fatalf("TTP latency %v, want about one TDMA round", time.Duration(ttp.Max()))
	}
}

func TestMembershipLatencyTensOfMs(t *testing.T) {
	lat := MeasureMembershipLatency(5, 3)
	if lat.N() != 5 {
		t.Fatalf("trials = %d", lat.N())
	}
	if lat.Max() > float64(50*time.Millisecond) || lat.Min() <= 0 {
		t.Fatalf("membership latency %v..%v outside the 'tens of ms' envelope",
			time.Duration(lat.Min()), time.Duration(lat.Max()))
	}
}

func TestMeasuredInaccessibilityWithinAnalyticalBound(t *testing.T) {
	for _, burst := range []int{1, 12, 16} {
		r := MeasureInaccessibility(burst)
		if r.Measured > r.Bound {
			t.Fatalf("burst %d: measured %v exceeds bound %v", burst, r.Measured, r.Bound)
		}
		// The bound is tight: the measurement must reach at least 90% of
		// it (the analytical cycle charges the interframe space, the bus
		// accounts it as normal spacing).
		if float64(r.Measured) < 0.9*float64(r.Bound) {
			t.Fatalf("burst %d: measured %v implausibly far below bound %v", burst, r.Measured, r.Bound)
		}
	}
	// Sixteen-attempt burst reproduces the CAN worst case of Figure 11.
	r := MeasureInaccessibility(16)
	if r.Bound != 2880*time.Microsecond {
		t.Fatalf("bound = %v, want 2.88ms", r.Bound)
	}
}

func TestChurnSweepMonotoneAndCalibrated(t *testing.T) {
	// The fast substrate accounts frame bits identically to the bit-accurate
	// one (see TestSubstrateEquivalence), so the calibration holds on both;
	// running the sweep on fastbus keeps the test cheap and the fast path hot.
	points := MeasureChurnSweep(canely.SubstrateFast, []int{0, 5, 10, 20}, 50*time.Millisecond, 2, 1)
	for i := 1; i < len(points); i++ {
		if points[i].Utilization <= points[i-1].Utilization {
			t.Fatalf("utilization not monotone in churn: %+v", points)
		}
	}
	// Footnote 11 analogue at Tm=50ms, extended frames and RHA cost
	// included: the marginal request cost must be a small fraction of a
	// percent, within a factor of a few of the paper's 0.16%-at-30ms.
	delta := PerRequestDelta(points)
	if delta <= 0 || delta > 0.005 {
		t.Fatalf("per-request delta = %.5f, out of envelope", delta)
	}
	if !strings.Contains(FormatChurn(points), "per-request delta") {
		t.Fatal("format incomplete")
	}
}

// TestStudiesRun runs every entry of the study table at two seeds: each
// must produce a non-empty, failure-free Report — the same run CI makes
// through cmd/campaign -study.
func TestStudiesRun(t *testing.T) {
	base := canely.DefaultConfig()
	base.Substrate = canely.SubstrateFast
	for _, st := range Studies {
		t.Run(st.Name, func(t *testing.T) {
			if st.Doc == "" {
				t.Error("study has no doc line")
			}
			spec := st.Spec(base, 4, nil, campaign.SeedRange{Base: 1, N: 2})
			rep := report(spec)
			if rep.Runs != 2*len(rep.Points) || rep.Runs == 0 || rep.Failed != 0 {
				t.Fatalf("runs=%d points=%d failed=%d:\n%s", rep.Runs, len(rep.Points), rep.Failed, rep.Table())
			}
			for _, p := range rep.Points {
				if len(p.Metrics) == 0 {
					t.Fatalf("%s: no metrics", p.Key())
				}
				for _, m := range p.Metrics {
					if m.Agg.Count != 2 {
						t.Fatalf("%s %s: %d samples, want 2", p.Key(), m.Name, m.Agg.Count)
					}
				}
			}
		})
	}
}

func TestFederationSweepScalesWithSegments(t *testing.T) {
	base := canely.DefaultConfig()
	base.Substrate = canely.SubstrateFast
	spec := FederationSpec(base, []int{4, 8, 16}, 3, campaign.SeedRange{Base: 1, N: 3})
	rep := report(spec)
	if len(rep.Points) != 3 || rep.Failed != 0 {
		t.Fatalf("points = %d, failed = %d", len(rep.Points), rep.Failed)
	}
	for i, p := range rep.Points {
		// Detection is staleness-driven: around Tstale (40ms), never an
		// order of magnitude away, and independent of segment count.
		if d := p.Metric("detect_ms").Mean; d < 30 || d > 80 {
			t.Fatalf("%s: detection %0.2fms outside the Tstale envelope", p.Key(), d)
		}
		// Convergence is digest fan-in on a shared backbone: it grows with
		// the segment count but stays well inside one announcement cycle
		// per round.
		c := p.Metric("converge_ms").Mean
		if c <= 0 || c > 100 {
			t.Fatalf("%s: convergence %0.2fms out of envelope", p.Key(), c)
		}
		if i > 0 && c <= rep.Points[i-1].Metric("converge_ms").Mean {
			t.Fatalf("convergence not monotone in segments:\n%s", rep.Table())
		}
	}
	if !strings.Contains(rep.Table(), "converge_ms") {
		t.Fatal("table incomplete")
	}
}

func TestLatencyBandwidthTradeoff(t *testing.T) {
	points := MeasureLatencyBandwidthTradeoff(canely.SubstrateBitAccurate, nil, 6, 4, 1)
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		// Larger Tb: worse (or equal) worst-case latency, cheaper life-signs.
		if points[i].Bound <= points[i-1].Bound {
			t.Fatal("latency bound must grow with Tb")
		}
		if points[i].ELSUtilization >= points[i-1].ELSUtilization {
			t.Fatalf("life-sign bandwidth must shrink with Tb: %+v", points)
		}
	}
	for _, p := range points {
		if p.MaxLatency > p.Bound {
			t.Fatalf("Tb=%v: measured max %v exceeds bound %v", p.Tb, p.MaxLatency, p.Bound)
		}
	}
	if !strings.Contains(FormatTradeoff(points), "ELS util") {
		t.Fatal("format incomplete")
	}
}
