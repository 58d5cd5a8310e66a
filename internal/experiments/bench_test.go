package experiments

import (
	"testing"

	"canely"
	"canely/internal/campaign"
)

// BenchmarkGossipComparison times one full CANELy-vs-SWIM comparison
// campaign (4 cluster sizes × 50 seeds, the sweep `campaign -study gossip`
// runs by default): the cost of regenerating the scaling table.
func BenchmarkGossipComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := report(GossipComparisonSpec(canely.DefaultConfig(), DefaultGossipModel(),
			[]int{10, 100, 1000, 10000}, campaign.SeedRange{Base: 1, N: 50}))
		if len(rep.Points) != 4 {
			b.Fatalf("got %d points", len(rep.Points))
		}
	}
}
