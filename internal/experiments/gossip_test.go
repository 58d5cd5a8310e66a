package experiments

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"canely"
	"canely/internal/campaign"
	"canely/internal/sim"
)

// TestGossipComparisonShape pins the comparison campaign's structure and
// the qualitative claims the model exists to show: CANELy's detection
// latency and per-node bandwidth grow with the cluster once the bus
// budget forces Tb up, gossip's stay near-flat, CANELy makes zero false
// suspicions and lossy gossip makes some.
func TestGossipComparisonShape(t *testing.T) {
	sizes := []int{10, 100, 1000, 10000}
	rep := report(GossipComparisonSpec(canely.DefaultConfig(), DefaultGossipModel(), sizes,
		campaign.SeedRange{Base: 1, N: 20}))
	if len(rep.Points) != len(sizes) || rep.Failed != 0 {
		t.Fatalf("got %d points (%d failed runs), want %d", len(rep.Points), rep.Failed, len(sizes))
	}
	mean := func(p campaign.PointReport, metric string) float64 { return p.Metric(metric).Mean }
	for i, p := range rep.Points {
		if want := fmt.Sprintf("nodes=%d", sizes[i]); p.Key() != want {
			t.Fatalf("point %d is %s, want %s", i, p.Key(), want)
		}
		for name, v := range map[string]float64{
			"gossip detect":  mean(p, "gossip_detect_ms"),
			"gossip bw":      mean(p, "gossip_bw_bps"),
			"canely detect":  mean(p, "canely_detect_ms"),
			"canely bw":      mean(p, "canely_bw_bps"),
			"gossip detect±": p.Metric("gossip_detect_ms").CI95,
			"canely detect±": p.Metric("canely_detect_ms").CI95,
		} {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want positive finite", p.Key(), name, v)
			}
		}
		if fp := mean(p, "canely_fp_node_hr"); fp != 0 {
			t.Errorf("%s: CANELy false positives %v, want 0", p.Key(), fp)
		}
		if mean(p, "gossip_fp_node_hr") <= 0 {
			t.Errorf("%s: lossy gossip reports no false suspicions", p.Key())
		}
	}
	small, large := rep.Points[0], rep.Points[len(rep.Points)-1]
	if s, l := mean(small, "canely_detect_ms"), mean(large, "canely_detect_ms"); l < 10*s {
		t.Errorf("CANELy detection did not scale with N: %s %.1fms, %s %.1fms", small.Key(), s, large.Key(), l)
	}
	if s, l := mean(small, "gossip_detect_ms"), mean(large, "gossip_detect_ms"); l > 5*s {
		t.Errorf("gossip detection not near-flat: %s %.1fms, %s %.1fms", small.Key(), s, large.Key(), l)
	}
	// CANELy per-node bandwidth grows with N until it saturates at the
	// membership channel budget (half the 1 Mbit/s bus); gossip's stays put.
	s, l := mean(small, "canely_bw_bps"), mean(large, "canely_bw_bps")
	if l < 2*s {
		t.Errorf("CANELy per-node bandwidth did not grow: %.0f vs %.0f bps", s, l)
	}
	if l > 500_000+1 {
		t.Errorf("CANELy per-node bandwidth %0.f bps exceeds the channel budget", l)
	}
	if s, l := mean(small, "gossip_bw_bps"), mean(large, "gossip_bw_bps"); l > 2*s {
		t.Errorf("gossip per-node bandwidth not flat: %.0f vs %.0f bps", s, l)
	}

	table := rep.Table()
	if len(table) == 0 {
		t.Fatal("empty table")
	}
	t.Logf("\n%s", table)
}

// TestGossipComparisonDeterminism: the campaign contract — same sizes and
// seeds, byte-identical aggregates regardless of scheduling.
func TestGossipComparisonDeterminism(t *testing.T) {
	run := func() []byte {
		b, err := report(GossipComparisonSpec(canely.DefaultConfig(), DefaultGossipModel(),
			[]int{10, 1000}, campaign.SeedRange{Base: 7, N: 10})).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("report differs across identical runs:\n%s\n%s", a, b)
	}
}

// TestPoissonMoments sanity-checks the sampler both sides of the
// normal-approximation switch: the empirical mean must sit within a few
// standard errors of lambda.
func TestPoissonMoments(t *testing.T) {
	r := sim.NewRNG(3).Split("poisson")
	for _, lambda := range []float64{0.5, 8, 200} {
		const n = 4000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(poisson(r, lambda))
		}
		mean := sum / n
		if se := 4 * math.Sqrt(lambda/n); math.Abs(mean-lambda) > se {
			t.Errorf("lambda %v: mean %v off by more than %v", lambda, mean, se)
		}
	}
	if poisson(r, 0) != 0 || poisson(r, -1) != 0 {
		t.Error("nonpositive lambda must draw 0")
	}
}
