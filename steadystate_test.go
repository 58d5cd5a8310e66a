package canely_test

import (
	"testing"
	"time"

	"canely"
)

// TestSteadyStateAllocFree pins the pure core + binding hot path at zero
// allocations: an 8-node bootstrapped network on the fast substrate in steady
// state — no joins, no leaves, no crashes, no fault injection — advancing
// one second of virtual time per run. Every run covers the same event
// population (ELS life-signs or application data, surveillance restarts,
// membership cycles with the RHA skip), and once the first second has grown
// buffers, queues and scheduler slabs, none of it may touch the heap.
func TestSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		senders int // nodes emitting cyclic application data
	}{
		{"life-signs", 0},
		{"cyclic-data", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := canely.DefaultConfig()
			cfg.Substrate = canely.SubstrateFast
			net := canely.NewNetwork(cfg, 8)
			net.BootstrapAll()
			for i := 0; i < tc.senders; i++ {
				net.Node(canely.NodeID(i)).StartCyclicTraffic(1, cfg.Tb/2, []byte{1, 2, 3, 4})
			}
			net.Run(time.Second)
			if n := testing.AllocsPerRun(1, func() { net.Run(time.Second) }); n != 0 {
				t.Fatalf("steady state allocated %v objects per virtual second, want 0", n)
			}
		})
	}
}
