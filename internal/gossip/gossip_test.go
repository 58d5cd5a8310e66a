package gossip

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/datagram"
	"canely/internal/fptest"
	simtime "canely/internal/sim"
)

func testConfig() Config {
	return Config{
		Period:         20 * time.Millisecond,
		AckTimeout:     5 * time.Millisecond,
		SuspectTimeout: 120 * time.Millisecond,
		Fanout:         2,
		Retransmit:     4,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Period = 0 },
		func(c *Config) { c.AckTimeout = 0 },
		func(c *Config) { c.AckTimeout = c.Period }, // 2×Ack > Period
		func(c *Config) { c.SuspectTimeout = -1 },
		func(c *Config) { c.Fanout = 0 },
		func(c *Config) { c.Retransmit = 0 },
	}
	for i, mut := range bad {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestBootstrapSteadyState: a bootstrapped cluster with lossless links
// keeps its view forever — probes are acked, nobody is ever suspected.
func TestBootstrapSteadyState(t *testing.T) {
	nw, err := NewNetwork(NetworkConfig{Nodes: 4, Core: testConfig(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := can.NodeSet(0b1111)
	nw.Bootstrap(all)
	nw.RunFor(2 * time.Second)
	for id := can.NodeID(0); id < 4; id++ {
		c := nw.Core(id)
		if c.View() != all {
			t.Errorf("node %v view %v, want %v", id, c.View(), all)
		}
		if !c.Suspects().Empty() || !c.Dead().Empty() {
			t.Errorf("node %v has residue: suspects=%v dead=%v", id, c.Suspects(), c.Dead())
		}
	}
}

// TestCrashDetection: survivors converge on the view without the crashed
// node within the analytic bound (probe rotation + probe + suspicion +
// dissemination periods).
func TestCrashDetection(t *testing.T) {
	cfg := testConfig()
	nw, err := NewNetwork(NetworkConfig{Nodes: 4, Core: cfg, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	all := can.NodeSet(0b1111)
	nw.Bootstrap(all)
	nw.RunFor(200 * time.Millisecond)
	nw.Crash(3)
	// Worst case: every survivor rotates through 3 targets before probing
	// node 3, the probe burns one period, suspicion one timeout, and the
	// confirm gossips around within a few more periods.
	nw.RunFor(8*cfg.Period + cfg.SuspectTimeout + 100*time.Millisecond)
	want := can.NodeSet(0b0111)
	for id := can.NodeID(0); id < 3; id++ {
		c := nw.Core(id)
		if c.View() != want {
			t.Errorf("node %v view %v, want %v", id, c.View(), want)
		}
		if !c.Dead().Contains(3) {
			t.Errorf("node %v never confirmed node 3 dead", id)
		}
	}
}

// TestJoinIntroduction: a joiner admitted through seed contacts converges
// on the full view, and the incumbents admit it.
func TestJoinIntroduction(t *testing.T) {
	nw, err := NewNetwork(NetworkConfig{Nodes: 3, Core: testConfig(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	boot := can.NodeSet(0b011)
	nw.Bootstrap(boot)
	nw.RunFor(100 * time.Millisecond)
	nw.Join(2, boot)
	nw.RunFor(500 * time.Millisecond)
	want := can.NodeSet(0b111)
	for id := can.NodeID(0); id < 3; id++ {
		if got := nw.Core(id).View(); got != want {
			t.Errorf("node %v view %v, want %v", id, got, want)
		}
	}
}

// TestLossyConvergence: under 10% per-link loss the cluster detects a
// real crash and refutation heals every false suspicion — the survivors
// reach the correct common view. Loss keeps injecting transient false
// suspicions forever, so the assertion is eventual convergence (a polled
// snapshot where all views agree), not stability at a fixed instant.
func TestLossyConvergence(t *testing.T) {
	for _, seed := range []int64{4, 10, 15} {
		cfg := testConfig()
		nw, err := NewNetwork(NetworkConfig{
			Nodes: 8, Core: cfg, Seed: seed,
			Link: datagram.LinkParams{Drop: 0.10, DelayMin: 100 * time.Microsecond, DelayJitter: 400 * time.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		all := can.NodeSet(0xFF)
		nw.Bootstrap(all)
		nw.RunFor(1 * time.Second)
		nw.Crash(5)
		want := all.Remove(5)
		converged := false
		for i := 0; i < 100 && !converged; i++ {
			nw.RunFor(100 * time.Millisecond)
			converged = true
			for id := can.NodeID(0); id < 8; id++ {
				if id != 5 && nw.Core(id).View() != want {
					converged = false
				}
			}
		}
		if !converged {
			t.Errorf("seed %d: survivors never converged on %v within 10s", seed, want)
			for id := can.NodeID(0); id < 8; id++ {
				if id != 5 {
					t.Logf("  node %v view %v", id, nw.Core(id).View())
				}
			}
		}
	}
}

// TestRefutation: a core that learns it is suspected bumps its incarnation
// and gossips alive(self, inc').
func TestRefutation(t *testing.T) {
	g, err := New(1, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fptest.Emit(g, proto.Event{Kind: proto.EvBootstrap, View: can.NodeSet(0b111)})
	if g.Incarnation(1) != 0 {
		t.Fatalf("fresh incarnation %d, want 0", g.Incarnation(1))
	}
	// Piggyback suspect(n1, inc 0) on a ping from node 0.
	ev := proto.Event{Kind: proto.EvDataInd, At: 1, MID: can.GossipSign(1, 0, packRef(kindPing, 3))}
	ev = ev.WithPayload([]byte{0, 1 | stSuspect<<6, 0})
	cmds := fptest.Emit(g, ev)
	if g.Incarnation(1) != 1 {
		t.Fatalf("suspected core has incarnation %d, want 1 (refuted)", g.Incarnation(1))
	}
	if g.Suspects().Contains(1) || !g.View().Contains(1) {
		t.Fatal("core suspected itself")
	}
	// The refutation must ride the very ack answering the ping.
	found := false
	for _, c := range cmds {
		if c.Kind != proto.CmdSendData {
			continue
		}
		p := c.Payload()
		for i := 1; i+1 < len(p); i += 2 {
			if p[i] == 1|stAlive<<6 && p[i+1] == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("refutation alive(n1, inc 1) not piggybacked on the ack")
	}
}

// TestDeadStaysDeadSameIncarnation: once confirmed dead, alive updates at
// the same incarnation cannot resurrect a node; a higher incarnation can.
func TestDeadStaysDeadSameIncarnation(t *testing.T) {
	g, err := New(0, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	fptest.Emit(g, proto.Event{Kind: proto.EvBootstrap, View: can.NodeSet(0b111)})
	feed := func(at simtime.Time, upd ...byte) {
		ev := proto.Event{Kind: proto.EvDataInd, At: at, MID: can.GossipSign(0, 1, packRef(kindPing, 1))}
		fptest.Emit(g, ev.WithPayload(append([]byte{1}, upd...)))
	}
	feed(1, 2|stDead<<6, 0)
	if g.View().Contains(2) || !g.Dead().Contains(2) {
		t.Fatal("dead update ignored")
	}
	feed(2, 2|stAlive<<6, 0)
	if g.View().Contains(2) {
		t.Fatal("alive at the dead incarnation resurrected node 2")
	}
	feed(3, 2|stAlive<<6, 1)
	if !g.View().Contains(2) || g.Dead().Contains(2) {
		t.Fatal("alive at a higher incarnation failed to resurrect node 2")
	}
}

// TestAttachAfterTrafficStarts pins the Attach-after-start half of the
// Medium contract on the gossip binding's substrate: a late port simply
// misses earlier traffic.
func TestAttachAfterTrafficStarts(t *testing.T) {
	nw, err := NewNetwork(NetworkConfig{Nodes: 3, Core: testConfig(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nw.Bootstrap(can.NodeSet(0b011))
	nw.RunFor(100 * time.Millisecond)
	late := nw.Net.Attach(9)
	if !late.Alive() {
		t.Fatal("late attachment not alive")
	}
	if late.RxSuccesses() != 0 {
		t.Fatal("late attachment observed traffic from before it existed")
	}
}

// TestNetworkSteadyStateAllocFree pins the gossip binding's hot path at
// zero allocations: 48 nodes on a lossy datagram network, warmed up for
// five virtual seconds so every link stream is seeded and every buffer,
// queue and scheduler slab has grown, then advanced one virtual second per
// run. Arrivals, serializations and timer expiries must not touch the heap.
func TestNetworkSteadyStateAllocFree(t *testing.T) {
	const nodes = 48
	nw, err := NewNetwork(NetworkConfig{
		Nodes: nodes, Core: DefaultConfig(), Rate: can.Rate1Mbps, Seed: 1,
		Link: datagram.LinkParams{Drop: 0.05, DelayMin: 200 * time.Microsecond, DelayJitter: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Bootstrap(can.RangeSet(0, nodes))
	nw.RunFor(5 * time.Second)
	if n := testing.AllocsPerRun(3, func() { nw.RunFor(time.Second) }); n != 0 {
		t.Fatalf("steady state allocated %v objects per virtual second, want 0", n)
	}
}
