package gateway

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/replay"
	"canely/internal/sim"
	"canely/internal/stack"
)

func testStackCfg() stack.Config {
	return stack.Config{
		FD: fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond},
		Membership: membership.Config{
			Tm:        50 * time.Millisecond,
			TjoinWait: 120 * time.Millisecond,
			RHA:       membership.RHAConfig{Trha: 5 * time.Millisecond, J: 2},
		},
		J: 2,
	}
}

func newMedium(sched *sim.Scheduler) stack.Medium {
	return stack.NewMedium(sched, stack.MediumConfig{Rate: can.Rate1Mbps})
}

// fedFixture is a two-segment federation: each segment medium carries two
// plain nodes (ids 0, 1) plus the gateway as member id 5; gateways talk
// digests over a raw backbone medium.
type fedFixture struct {
	sched    *sim.Scheduler
	backbone stack.Medium
	segMedia []stack.Medium
	nodes    [][]*stack.Stack
	gws      []*Gateway
}

const segView = can.NodeSet(1<<0 | 1<<1 | 1<<5) // {n00, n01, n05}

func newFedFixture(t *testing.T, segments int, rec func(i int) *replay.Log) *fedFixture {
	t.Helper()
	fx := &fedFixture{sched: sim.NewScheduler()}
	fx.backbone = newMedium(fx.sched)
	for s := 0; s < segments; s++ {
		m := newMedium(fx.sched)
		fx.segMedia = append(fx.segMedia, m)
		var nodes []*stack.Stack
		for _, id := range []can.NodeID{0, 1} {
			st, err := stack.New(fx.sched, []stack.Medium{m}, id, testStackCfg(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, st)
		}
		fx.nodes = append(fx.nodes, nodes)

		var log *replay.Log
		if rec != nil {
			log = rec(s)
		}
		g, err := New(fx.sched, Config{ID: can.NodeID(10 + s), Tann: 10 * time.Millisecond,
			Tstale: 40 * time.Millisecond, Recorder: log})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AddMemberLink(m, can.NodeID(s), 5, segView, testStackCfg(), nil); err != nil {
			t.Fatal(err)
		}
		if err := g.AddRawLink(fx.backbone); err != nil {
			t.Fatal(err)
		}
		fx.gws = append(fx.gws, g)
	}
	return fx
}

func (fx *fedFixture) bootstrap(t *testing.T, site can.NodeSet) {
	t.Helper()
	for _, seg := range fx.nodes {
		for _, st := range seg {
			st.Bootstrap(segView)
		}
	}
	for _, g := range fx.gws {
		if err := g.Bootstrap(site); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFederationConvergesAndDetectsGatewayCrash drives the fixture to the
// agreed two-segment site view, crashes one gateway, and checks staleness
// removes its segment at the survivor within Tstale plus one scan.
func TestFederationConvergesAndDetectsGatewayCrash(t *testing.T) {
	fx := newFedFixture(t, 2, nil)
	site := can.MakeSet(0, 1)

	var failures []can.NodeSet
	fx.gws[0].OnSiteChange(func(_, failed can.NodeSet) {
		if !failed.Empty() {
			failures = append(failures, failed)
		}
	})

	fx.bootstrap(t, site)
	fx.sched.RunFor(100 * time.Millisecond)
	for i, g := range fx.gws {
		if got := g.SiteView(); got != site {
			t.Fatalf("gateway %d site view %v, want %v", i, got, site)
		}
	}
	if got := fx.gws[0].Members(1); got != segView {
		t.Fatalf("gateway 0 sees segment 1 members %v, want %v", got, segView)
	}

	fx.gws[1].Crash()
	if fx.gws[1].Alive() {
		t.Fatal("crashed gateway still alive")
	}
	fx.sched.RunFor(100 * time.Millisecond)
	if got, want := fx.gws[0].SiteView(), can.MakeSet(0); got != want {
		t.Fatalf("after gateway-1 crash, gateway 0 site view %v, want %v", got, want)
	}
	if len(failures) != 1 || failures[0] != can.MakeSet(1) {
		t.Fatalf("site failure notifications %v, want one removal of segment 1", failures)
	}
}

// TestRedundantGatewayFailover puts two gateways on segment 1 (member ids
// 5 and 6). The backup stays digest-suppressed while the primary lives;
// after the primary crashes it takes over fast enough that segment 1 never
// leaves the remote site view (Tstale >= 4*Tann ride-through).
func TestRedundantGatewayFailover(t *testing.T) {
	fx := newFedFixture(t, 2, nil)
	seg1View := can.NodeSet(1<<0 | 1<<1 | 1<<5 | 1<<6)

	backup, err := New(fx.sched, Config{ID: 13, Tann: 10 * time.Millisecond,
		Tstale: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := backup.AddMemberLink(fx.segMedia[1], 1, 6, seg1View, testStackCfg(), nil); err != nil {
		t.Fatal(err)
	}
	if err := backup.AddRawLink(fx.backbone); err != nil {
		t.Fatal(err)
	}

	var removals []can.NodeSet
	fx.gws[0].OnSiteChange(func(_, failed can.NodeSet) {
		if !failed.Empty() {
			removals = append(removals, failed)
		}
	})

	site := can.MakeSet(0, 1)
	for _, st := range fx.nodes[0] {
		st.Bootstrap(segView)
	}
	for _, st := range fx.nodes[1] {
		st.Bootstrap(seg1View)
	}
	fx.gws[1].members[0].view = seg1View // primary's member view matches the wider segment
	for _, g := range []*Gateway{fx.gws[0], fx.gws[1], backup} {
		if err := g.Bootstrap(site); err != nil {
			t.Fatal(err)
		}
	}

	fx.sched.RunFor(100 * time.Millisecond)
	if got := fx.gws[0].SiteView(); got != site {
		t.Fatalf("site view before failover %v, want %v", got, site)
	}

	fx.gws[1].Crash()
	fx.sched.RunFor(200 * time.Millisecond)
	if got := fx.gws[0].SiteView(); got != site {
		t.Fatalf("site view after failover %v, want %v (backup should keep segment 1 announced)", got, site)
	}
	if len(removals) != 0 {
		t.Fatalf("segment removed during failover: %v (Tstale ride-through violated)", removals)
	}
}

// TestGatewayRecordingReplays captures both gateways' federation streams
// and checks the logs re-execute exactly (replay.Verify).
func TestGatewayRecordingReplays(t *testing.T) {
	logs := []*replay.Log{replay.New(), replay.New()}
	fx := newFedFixture(t, 2, func(i int) *replay.Log { return logs[i] })
	fx.bootstrap(t, can.MakeSet(0, 1))
	fx.sched.RunFor(100 * time.Millisecond)
	fx.gws[1].Crash()
	fx.sched.RunFor(100 * time.Millisecond)

	for i, log := range logs {
		if len(log.Records) == 0 {
			t.Fatalf("gateway %d recorded nothing", i)
		}
		if err := log.Verify(); err != nil {
			t.Fatalf("gateway %d capture does not replay: %v", i, err)
		}
	}
}

// TestLinksFrozenAfterBootstrap pins the attach-before-bootstrap contract.
func TestLinksFrozenAfterBootstrap(t *testing.T) {
	sched := sim.NewScheduler()
	g, err := New(sched, Config{ID: 9, Tann: 10 * time.Millisecond, Tstale: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddRawLink(newMedium(sched)); err != nil {
		t.Fatal(err)
	}
	if err := g.Bootstrap(can.EmptySet); err != nil {
		t.Fatal(err)
	}
	if err := g.AddRawLink(newMedium(sched)); err == nil {
		t.Fatal("AddRawLink accepted after Bootstrap")
	}
	if err := g.Bootstrap(can.EmptySet); err == nil {
		t.Fatal("double Bootstrap accepted")
	}
}
