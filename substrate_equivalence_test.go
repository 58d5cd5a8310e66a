package canely

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/fault"
)

// The substrate equivalence suite: a seeded simulation must deliver the
// same frame sequence, drive the same fault-injector decision stream and
// reach the same final membership views on the bit-accurate and the fast
// substrate. Each scenario runs twice with identical seeds and scripts and
// the full layer-boundary event logs are compared byte for byte.

// eqRecorder captures every hook-observable event in global order.
type eqRecorder struct {
	log   []string
	views map[NodeID]NodeSet
}

func newEqRecorder() *eqRecorder {
	return &eqRecorder{views: make(map[NodeID]NodeSet)}
}

func (r *eqRecorder) hooks() *Hooks {
	return &Hooks{
		OnIndication: func(node NodeID, f can.Frame, own bool) {
			r.log = append(r.log, fmt.Sprintf("n%02d ind %08x rtr=%t dlc=%d data=%x own=%t",
				node, f.ID, f.RTR, f.DLC, f.Data, own))
		},
		OnConfirm: func(node NodeID, f can.Frame) {
			r.log = append(r.log, fmt.Sprintf("n%02d cnf %08x rtr=%t", node, f.ID, f.RTR))
		},
		OnBusOff: func(node NodeID) {
			r.log = append(r.log, fmt.Sprintf("n%02d busoff", node))
		},
		OnFDANotify: func(node, failed NodeID) {
			r.log = append(r.log, fmt.Sprintf("n%02d fda-nty failed=%v", node, failed))
		},
		OnFDNotify: func(node, failed NodeID) {
			r.log = append(r.log, fmt.Sprintf("n%02d fd-nty failed=%v", node, failed))
		},
		OnViewChange: func(node NodeID, ch Change) {
			r.log = append(r.log, fmt.Sprintf("n%02d view active=%v failed=%v left=%t",
				node, ch.Active, ch.Failed, ch.Left))
			r.views[node] = ch.Active
		},
	}
}

// eqScenario is one table entry: cfg must build a FRESH config per call
// (fault scripts are stateful), drive runs the workload.
type eqScenario struct {
	name  string
	nodes int
	cfg   func() Config
	drive func(net *Network)
}

func equivalenceScenarios() []eqScenario {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Seed = 42
		return cfg
	}
	traffic := func(net *Network) {
		for _, nd := range net.Nodes() {
			nd.StartCyclicTraffic(1, 7*time.Millisecond, []byte{byte(nd.ID()), 0xAB})
		}
	}
	return []eqScenario{
		{
			name:  "steady-state",
			nodes: 8,
			cfg:   base,
			drive: func(net *Network) {
				net.BootstrapAll()
				traffic(net)
				net.Run(300 * time.Millisecond)
			},
		},
		{
			name:  "crash",
			nodes: 8,
			cfg:   base,
			drive: func(net *Network) {
				net.BootstrapAll()
				traffic(net)
				net.Run(120 * time.Millisecond)
				net.Node(3).Crash()
				net.Run(250 * time.Millisecond)
			},
		},
		{
			name:  "churn",
			nodes: 6,
			cfg:   base,
			drive: func(net *Network) {
				// Bootstrap only 0..4; node 5 joins later; node 2 leaves.
				var view NodeSet
				for i := 0; i < 5; i++ {
					view = view.Add(NodeID(i))
				}
				for i := 0; i < 5; i++ {
					net.Node(NodeID(i)).Bootstrap(view)
				}
				traffic(net)
				net.Run(100 * time.Millisecond)
				net.Node(5).Join()
				net.Run(200 * time.Millisecond)
				net.Node(2).Leave()
				net.Run(200 * time.Millisecond)
			},
		},
		{
			name:  "inconsistent-omission-sender-crash",
			nodes: 8,
			cfg: func() Config {
				cfg := base()
				// The third frame with node 5 among the senders is omitted
				// at nodes 1 and 6 in the last two bits, and node 5 crashes
				// before it can retransmit — the LCAN4 worst case the FDA
				// diffusion exists for.
				cfg.Script = fault.NewScript(fault.Rule{
					Match:      fault.Match{Type: fault.AnyType, Param: fault.AnyParam, Sender: 5},
					Occurrence: 3,
					Decision: fault.Decision{
						InconsistentVictims: MakeSet(1, 6),
						CrashSenders:        true,
					},
				})
				return cfg
			},
			drive: func(net *Network) {
				net.BootstrapAll()
				traffic(net)
				net.Run(400 * time.Millisecond)
			},
		},
		{
			name:  "stochastic-faults",
			nodes: 8,
			cfg: func() Config {
				cfg := base()
				cfg.PCorrupt = 0.02
				cfg.PInconsistent = 0.01
				return cfg
			},
			drive: func(net *Network) {
				net.BootstrapAll()
				traffic(net)
				net.Run(150 * time.Millisecond)
				net.Node(6).Crash()
				net.Run(250 * time.Millisecond)
			},
		},
	}
}

// runScenario executes one scenario on one substrate and returns the event
// log, the final views of every node and the wire statistics.
func runScenario(sc eqScenario, sub Substrate) (*eqRecorder, map[NodeID]NodeSet, BusStats) {
	rec := newEqRecorder()
	cfg := sc.cfg()
	cfg.Substrate = sub
	cfg.Hooks = rec.hooks()
	net := NewNetwork(cfg, sc.nodes)
	sc.drive(net)
	final := make(map[NodeID]NodeSet)
	for _, nd := range net.Nodes() {
		final[nd.ID()] = nd.View()
	}
	return rec, final, net.Stats()
}

func TestSubstrateEquivalence(t *testing.T) {
	for _, sc := range equivalenceScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			bitRec, bitViews, bitStats := runScenario(sc, SubstrateBitAccurate)
			fastRec, fastViews, fastStats := runScenario(sc, SubstrateFast)

			if len(bitRec.log) == 0 {
				t.Fatal("scenario produced no events; the comparison is vacuous")
			}
			for i := range bitRec.log {
				if i >= len(fastRec.log) {
					t.Fatalf("fast log ends at %d/%d events; next bit event: %s",
						i, len(bitRec.log), bitRec.log[i])
				}
				if bitRec.log[i] != fastRec.log[i] {
					lo := i - 3
					if lo < 0 {
						lo = 0
					}
					t.Fatalf("logs diverge at event %d:\n  bit:  %s\n  fast: %s\ncontext:\n%s",
						i, bitRec.log[i], fastRec.log[i],
						strings.Join(bitRec.log[lo:i+1], "\n"))
				}
			}
			if len(fastRec.log) > len(bitRec.log) {
				t.Fatalf("fast log has %d extra events; first: %s",
					len(fastRec.log)-len(bitRec.log), fastRec.log[len(bitRec.log)])
			}

			for id, v := range bitViews {
				if fastViews[id] != v {
					t.Errorf("final view of %v: bit=%v fast=%v", id, v, fastViews[id])
				}
			}

			if bitStats.FramesOK != fastStats.FramesOK ||
				bitStats.FramesError != fastStats.FramesError ||
				bitStats.FramesInconsistent != fastStats.FramesInconsistent ||
				bitStats.BitsBusy != fastStats.BitsBusy ||
				bitStats.ErrorBits != fastStats.ErrorBits ||
				bitStats.Inaccessibility != fastStats.Inaccessibility {
				t.Errorf("stats differ:\n  bit:  %+v\n  fast: %+v", bitStats, fastStats)
			}
			if bitStats.BitsByType != fastStats.BitsByType {
				t.Errorf("BitsByType differ:\n  bit:  %v\n  fast: %v", bitStats.BitsByType, fastStats.BitsByType)
			}
		})
	}
}

// The federation scenario family: a multi-segment gateway topology must
// deliver identical per-segment frame sequences, identical gateway site
// transitions and identical final site views on both substrates. Logs are
// compared per segment — node ids repeat across segments, and cross-medium
// interleaving at equal instants is a scheduler artifact, not protocol
// behaviour — which is exactly the delivered-frame-sequence guarantee the
// single-segment suite pins, once per segment bus.

// fedEqRecorder captures per-segment hook logs plus per-gateway site
// transitions and final site views.
type fedEqRecorder struct {
	segLogs map[NodeID][]string
	site    map[NodeID][]string
	finals  map[NodeID]NodeSet
}

func newFedEqRecorder() *fedEqRecorder {
	return &fedEqRecorder{
		segLogs: make(map[NodeID][]string),
		site:    make(map[NodeID][]string),
		finals:  make(map[NodeID]NodeSet),
	}
}

// segmentHooks returns the hooks of one segment, appending to its log.
func (r *fedEqRecorder) segmentHooks(seg NodeID) *Hooks {
	return &Hooks{
		OnIndication: func(node NodeID, f can.Frame, own bool) {
			r.segLogs[seg] = append(r.segLogs[seg], fmt.Sprintf("n%02d ind %08x rtr=%t dlc=%d data=%x own=%t",
				node, f.ID, f.RTR, f.DLC, f.Data, own))
		},
		OnConfirm: func(node NodeID, f can.Frame) {
			r.segLogs[seg] = append(r.segLogs[seg], fmt.Sprintf("n%02d cnf %08x rtr=%t", node, f.ID, f.RTR))
		},
		OnViewChange: func(node NodeID, ch Change) {
			r.segLogs[seg] = append(r.segLogs[seg], fmt.Sprintf("n%02d view active=%v failed=%v left=%t",
				node, ch.Active, ch.Failed, ch.Left))
		},
	}
}

// fedEqScenario is one federation table entry; cfg must build a fresh
// config per call (fault scripts are stateful).
type fedEqScenario struct {
	name  string
	cfg   func() FederationConfig
	drive func(fed *Federation)
}

func federationEquivalenceScenarios() []fedEqScenario {
	base := func() FederationConfig {
		cfg := DefaultFederationConfig()
		cfg.Node.Seed = 42
		cfg.NodesPerSegment = 3
		return cfg
	}
	return []fedEqScenario{
		{
			name: "fed-steady-state",
			cfg:  base,
			drive: func(fed *Federation) {
				fed.BootstrapAll()
				fed.Run(250 * time.Millisecond)
			},
		},
		{
			name: "fed-gateway-failover",
			cfg: func() FederationConfig {
				cfg := base()
				cfg.RedundantGateways = true
				return cfg
			},
			drive: func(fed *Federation) {
				fed.BootstrapAll()
				fed.Run(100 * time.Millisecond)
				fed.Gateway(1, 0).Crash()
				fed.Run(200 * time.Millisecond)
			},
		},
		{
			name: "fed-segment-partition",
			cfg: func() FederationConfig {
				cfg := base()
				cfg.BackboneScript = fault.NewScript(fault.Rule{
					Match: fault.Match{Type: can.TypeFed, Param: fault.AnyParam,
						Sender: fault.AnySender, Segments: MakeSet(2)},
					Occurrence: 6,
					Repeat:     true,
					Decision:   fault.Decision{Corrupt: true},
				})
				return cfg
			},
			drive: func(fed *Federation) {
				fed.BootstrapAll()
				fed.Run(300 * time.Millisecond)
			},
		},
		{
			name: "fed-segment-crash",
			cfg:  base,
			drive: func(fed *Federation) {
				fed.BootstrapAll()
				fed.Run(120 * time.Millisecond)
				fed.CrashSegment(3)
				fed.Run(200 * time.Millisecond)
			},
		},
	}
}

// runFedScenario executes one federation scenario on one substrate.
func runFedScenario(sc fedEqScenario, sub Substrate) *fedEqRecorder {
	rec := newFedEqRecorder()
	cfg := sc.cfg()
	cfg.Node.Substrate = sub
	cfg.SegmentHooks = rec.segmentHooks
	fed := NewFederation(cfg)
	for _, g := range fed.Gateways() {
		id := g.ID()
		g.OnSiteChange(func(active, failed NodeSet) {
			rec.site[id] = append(rec.site[id], fmt.Sprintf("site active=%v failed=%v", active, failed))
		})
	}
	sc.drive(fed)
	for _, g := range fed.Gateways() {
		rec.finals[g.ID()] = g.SiteView()
	}
	return rec
}

func TestSubstrateEquivalenceFederation(t *testing.T) {
	for _, sc := range federationEquivalenceScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			bit := runFedScenario(sc, SubstrateBitAccurate)
			fast := runFedScenario(sc, SubstrateFast)

			total := 0
			for seg, bitLog := range bit.segLogs {
				total += len(bitLog)
				fastLog := fast.segLogs[seg]
				for i := range bitLog {
					if i >= len(fastLog) {
						t.Fatalf("segment %v: fast log ends at %d/%d events; next bit event: %s",
							seg, i, len(bitLog), bitLog[i])
					}
					if bitLog[i] != fastLog[i] {
						t.Fatalf("segment %v logs diverge at event %d:\n  bit:  %s\n  fast: %s",
							seg, i, bitLog[i], fastLog[i])
					}
				}
				if len(fastLog) > len(bitLog) {
					t.Fatalf("segment %v: fast log has %d extra events; first: %s",
						seg, len(fastLog)-len(bitLog), fastLog[len(bitLog)])
				}
			}
			if total == 0 {
				t.Fatal("scenario produced no segment events; the comparison is vacuous")
			}

			for gw, bitSite := range bit.site {
				if got := strings.Join(fast.site[gw], "\n"); got != strings.Join(bitSite, "\n") {
					t.Errorf("gateway %v site transitions differ:\n  bit:\n%s\n  fast:\n%s",
						gw, strings.Join(bitSite, "\n"), got)
				}
			}
			for gw, v := range bit.finals {
				if fast.finals[gw] != v {
					t.Errorf("final site view of gateway %v: bit=%v fast=%v", gw, v, fast.finals[gw])
				}
			}
		})
	}
}

// TestSubstrateEquivalenceDualMedia exercises the media-redundancy path:
// the first-copy merge must behave identically over both substrates.
func TestSubstrateEquivalenceDualMedia(t *testing.T) {
	sc := eqScenario{
		nodes: 6,
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Seed = 7
			cfg.DualMedia = true
			return cfg
		},
		drive: func(net *Network) {
			net.BootstrapAll()
			for _, nd := range net.Nodes() {
				nd.StartCyclicTraffic(1, 9*time.Millisecond, []byte{byte(nd.ID())})
			}
			net.Run(150 * time.Millisecond)
			net.Node(1).Crash()
			net.Run(200 * time.Millisecond)
		},
	}
	bitRec, bitViews, _ := runScenario(sc, SubstrateBitAccurate)
	fastRec, fastViews, _ := runScenario(sc, SubstrateFast)
	if len(bitRec.log) == 0 {
		t.Fatal("scenario produced no events")
	}
	if len(bitRec.log) != len(fastRec.log) {
		t.Fatalf("log lengths differ: bit=%d fast=%d", len(bitRec.log), len(fastRec.log))
	}
	for i := range bitRec.log {
		if bitRec.log[i] != fastRec.log[i] {
			t.Fatalf("logs diverge at event %d:\n  bit:  %s\n  fast: %s", i, bitRec.log[i], fastRec.log[i])
		}
	}
	for id, v := range bitViews {
		if fastViews[id] != v {
			t.Errorf("final view of %v: bit=%v fast=%v", id, v, fastViews[id])
		}
	}
}
