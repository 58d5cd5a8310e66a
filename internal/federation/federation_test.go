package federation

import (
	"strings"
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/fptest"
	"canely/internal/sim"
)

func testConfig(gw can.NodeID, locals ...can.NodeID) Config {
	return Config{
		Gateway: gw,
		Locals:  can.MakeSet(locals...),
		Tann:    10 * time.Millisecond,
		Tstale:  40 * time.Millisecond,
	}
}

func mustCore(t *testing.T, cfg Config) *Core {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func at(ms int64) sim.Time { return sim.Time(0).Add(time.Duration(ms) * time.Millisecond) }

// kinds extracts the command-kind sequence for compact assertions.
func kinds(cmds []proto.Command) []proto.CommandKind {
	var ks []proto.CommandKind
	for _, c := range cmds {
		ks = append(ks, c.Kind)
	}
	return ks
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(0, 0)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Gateway = 99
	if err := bad.Validate(); err == nil {
		t.Error("invalid gateway id accepted")
	}
	bad = good
	bad.Tann = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero Tann accepted")
	}
	bad = good
	bad.Tstale = 3 * good.Tann
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "failover") {
		t.Errorf("Tstale < 4*Tann accepted (err=%v)", err)
	}
}

// TestBootstrapAnnouncesAndArms pins the bootstrap command stream: one
// digest per local segment with a known view, the announce timer, and a
// staleness scan for the remote segments of the initial site.
func TestBootstrapAnnouncesAndArms(t *testing.T) {
	c := mustCore(t, testConfig(0, 0))
	// Local view arrives before bootstrap (the documented driver order).
	if cmds := fptest.Emit(c, proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0, 1, 2)}); cmds != nil {
		t.Fatalf("pre-boot local view emitted commands: %v", cmds)
	}
	cmds := fptest.Emit(c, proto.Event{Kind: proto.EvBootstrap, At: at(0), View: can.MakeSet(0, 1)})
	want := []proto.CommandKind{
		proto.CmdSetTimer,                 // staleness scan for remote segment 1
		proto.CmdTrace, proto.CmdSendData, // digest for local segment 0
		proto.CmdSetTimer, // announce period
	}
	got := kinds(cmds)
	if len(got) != len(want) {
		t.Fatalf("bootstrap commands: got %v", cmds)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bootstrap command %d = %v, want %v (full: %v)", i, got[i], want[i], cmds)
		}
	}
	dig := cmds[2]
	if dig.MID != can.FedDigestSign(0, 0) {
		t.Errorf("digest mid = %v", dig.MID)
	}
	view, err := can.SetFromBytes(dig.Payload())
	if err != nil || view != can.MakeSet(0, 1, 2) {
		t.Errorf("digest payload view = %v (err=%v)", view, err)
	}
	if c.SiteView() != can.MakeSet(0, 1) {
		t.Errorf("site after bootstrap = %v", c.SiteView())
	}
}

// TestPeriodicAnnounceRearms pins the announce cycle: digest plus re-armed
// timer at every expiry, and nothing for a local segment with an empty view.
func TestPeriodicAnnounceRearms(t *testing.T) {
	c := mustCore(t, testConfig(0, 0))
	fptest.Emit(c, proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0, 1)})
	fptest.Emit(c, proto.Event{Kind: proto.EvBootstrap, At: at(0), View: can.MakeSet(0)})
	cmds := fptest.Emit(c, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedAnnounce, At: at(10)})
	got := kinds(cmds)
	want := []proto.CommandKind{proto.CmdTrace, proto.CmdSendData, proto.CmdSetTimer}
	if len(got) != len(want) || got[1] != proto.CmdSendData || got[2] != proto.CmdSetTimer {
		t.Fatalf("announce cycle commands: %v", cmds)
	}
	if cmds[2].Delay != 10*time.Millisecond {
		t.Errorf("announce re-arm delay = %v", cmds[2].Delay)
	}
	// An empty local view (every member crashed) stops the digests and
	// removes the segment from the local site view at once.
	cmds = fptest.Emit(c, proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.EmptySet, At: at(15)})
	var sawNotify bool
	for _, cmd := range cmds {
		if cmd.Kind == proto.CmdNotifySite {
			sawNotify = true
			if cmd.Failed != can.MakeSet(0) || cmd.Active != can.EmptySet {
				t.Errorf("empty-view site change: %v", cmd)
			}
		}
	}
	if !sawNotify {
		t.Fatalf("empty local view did not notify: %v", cmds)
	}
	cmds = fptest.Emit(c, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedAnnounce, At: at(20)})
	for _, cmd := range cmds {
		if cmd.Kind == proto.CmdSendData {
			t.Fatalf("digest announced for an empty segment view: %v", cmds)
		}
	}
}

// TestDigestAdmitsAndStalenessRemoves walks the remote-segment lifecycle:
// a fresh digest admits the segment to the site view, silence beyond
// Tstale removes it, and a later digest re-admits it.
func TestDigestAdmitsAndStalenessRemoves(t *testing.T) {
	c := mustCore(t, testConfig(0, 0))
	fptest.Emit(c, proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0)})
	fptest.Emit(c, proto.Event{Kind: proto.EvBootstrap, At: at(0), View: can.MakeSet(0)})

	dig := proto.Event{Kind: proto.EvDataInd, At: at(5), MID: can.FedDigestSign(3, 6)}.
		WithPayload(can.MakeSet(10, 11).Bytes())
	cmds := fptest.Emit(c, dig)
	if c.SiteView() != can.MakeSet(0, 3) {
		t.Fatalf("site after digest = %v (cmds %v)", c.SiteView(), cmds)
	}
	if c.Members(3) != can.MakeSet(10, 11) {
		t.Errorf("segment 3 members = %v", c.Members(3))
	}
	var scanDelay time.Duration
	for _, cmd := range cmds {
		if cmd.Kind == proto.CmdSetTimer && cmd.Timer == proto.TimerFedScan {
			scanDelay = cmd.Delay
		}
	}
	if scanDelay != 40*time.Millisecond {
		t.Fatalf("staleness scan delay = %v, want Tstale", scanDelay)
	}

	// Silence: the scan fires at the deadline and removes the segment.
	cmds = fptest.Emit(c, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedScan, At: at(45)})
	if c.SiteView() != can.MakeSet(0) {
		t.Fatalf("site after staleness = %v (cmds %v)", c.SiteView(), cmds)
	}
	var sawNotify bool
	for _, cmd := range cmds {
		if cmd.Kind == proto.CmdNotifySite {
			sawNotify = true
			if cmd.Failed != can.MakeSet(3) {
				t.Errorf("staleness notify failed = %v", cmd.Failed)
			}
		}
	}
	if !sawNotify {
		t.Fatalf("staleness removal did not notify: %v", cmds)
	}

	// The segment heals: a new digest re-admits it.
	fptest.Emit(c, proto.Event{Kind: proto.EvDataInd, At: at(50), MID: can.FedDigestSign(3, 6)}.
		WithPayload(can.MakeSet(10).Bytes()))
	if c.SiteView() != can.MakeSet(0, 3) {
		t.Fatalf("site after re-admission = %v", c.SiteView())
	}
}

// TestEmptyAndMalformedDigestsIgnored: a live segment always has members,
// so empty or short payloads must not perturb the site view.
func TestEmptyAndMalformedDigestsIgnored(t *testing.T) {
	c := mustCore(t, testConfig(0, 0))
	fptest.Emit(c, proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0)})
	fptest.Emit(c, proto.Event{Kind: proto.EvBootstrap, At: at(0), View: can.MakeSet(0)})
	if cmds := fptest.Emit(c, proto.Event{Kind: proto.EvDataInd, At: at(1), MID: can.FedDigestSign(2, 5)}.
		WithPayload(can.EmptySet.Bytes())); cmds != nil {
		t.Errorf("empty digest produced commands: %v", cmds)
	}
	if cmds := fptest.Emit(c, proto.Event{Kind: proto.EvDataInd, At: at(1), MID: can.FedDigestSign(2, 5)}.
		WithPayload([]byte{1, 2})); cmds != nil {
		t.Errorf("short digest produced commands: %v", cmds)
	}
	if c.SiteView() != can.MakeSet(0) {
		t.Errorf("site perturbed by ignorable digests: %v", c.SiteView())
	}
}

// TestLeaderSuppressionAndFailover: a backup gateway stays silent while a
// lower-numbered gateway announces its segment, and resumes within the
// suppression window after the leader goes silent.
func TestLeaderSuppressionAndFailover(t *testing.T) {
	backup := mustCore(t, testConfig(1, 0))
	fptest.Emit(backup, proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0, 1)})
	fptest.Emit(backup, proto.Event{Kind: proto.EvBootstrap, At: at(0), View: can.MakeSet(0)})

	// The leader's digest for the shared segment suppresses the backup.
	fptest.Emit(backup, proto.Event{Kind: proto.EvDataInd, At: at(1), MID: can.FedDigestSign(0, 0)}.
		WithPayload(can.MakeSet(0, 1).Bytes()))
	cmds := fptest.Emit(backup, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedAnnounce, At: at(10)})
	for _, cmd := range cmds {
		if cmd.Kind == proto.CmdSendData {
			t.Fatalf("suppressed backup announced: %v", cmds)
		}
	}

	// The leader crashes (no more digests). Suppression lapses 2*Tann after
	// the last leader digest; the next announce expiry emits again.
	cmds = fptest.Emit(backup, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedAnnounce, At: at(30)})
	var announced bool
	for _, cmd := range cmds {
		if cmd.Kind == proto.CmdSendData {
			announced = true
			if cmd.MID != can.FedDigestSign(0, 1) {
				t.Errorf("failover digest mid = %v", cmd.MID)
			}
		}
	}
	if !announced {
		t.Fatalf("backup did not take over after leader silence: %v", cmds)
	}
}

// TestDigestForLocalSegmentFromHigherGatewayIgnored: only lower-numbered
// peers suppress; a higher-numbered backup's digest must not silence the
// leader.
func TestDigestForLocalSegmentFromHigherGatewayIgnored(t *testing.T) {
	leader := mustCore(t, testConfig(0, 0))
	fptest.Emit(leader, proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0, 1)})
	fptest.Emit(leader, proto.Event{Kind: proto.EvBootstrap, At: at(0), View: can.MakeSet(0)})
	fptest.Emit(leader, proto.Event{Kind: proto.EvDataInd, At: at(1), MID: can.FedDigestSign(0, 1)}.
		WithPayload(can.MakeSet(0, 1).Bytes()))
	cmds := fptest.Emit(leader, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFedAnnounce, At: at(10)})
	var announced bool
	for _, cmd := range cmds {
		if cmd.Kind == proto.CmdSendData {
			announced = true
		}
	}
	if !announced {
		t.Fatalf("leader suppressed by a higher-numbered backup: %v", cmds)
	}
}

// TestLocalViewChangeAnnouncesImmediately: convergence is event-driven, not
// only periodic — a membership change inside a local segment re-announces
// right away.
func TestLocalViewChangeAnnouncesImmediately(t *testing.T) {
	c := mustCore(t, testConfig(0, 0))
	fptest.Emit(c, proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0, 1, 2)})
	fptest.Emit(c, proto.Event{Kind: proto.EvBootstrap, At: at(0), View: can.MakeSet(0)})
	cmds := fptest.Emit(c, proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0, 1), At: at(5)})
	var dig *proto.Command
	for i, cmd := range cmds {
		if cmd.Kind == proto.CmdSendData {
			dig = &cmds[i]
		}
	}
	if dig == nil {
		t.Fatalf("local view change did not announce: %v", cmds)
	}
	view, err := can.SetFromBytes(dig.Payload())
	if err != nil || view != can.MakeSet(0, 1) {
		t.Errorf("announced view = %v (err=%v)", view, err)
	}
	// An identical view is not a change and must not re-announce.
	if cmds := fptest.Emit(c, proto.Event{Kind: proto.EvFedLocalView, Node: 0, View: can.MakeSet(0, 1), At: at(6)}); cmds != nil {
		t.Errorf("unchanged view re-announced: %v", cmds)
	}
}

// TestForeignLocalViewIgnored: views for segments outside Locals are not
// this gateway's to absorb.
func TestForeignLocalViewIgnored(t *testing.T) {
	c := mustCore(t, testConfig(0, 0))
	fptest.Emit(c, proto.Event{Kind: proto.EvBootstrap, At: at(0), View: can.MakeSet(0)})
	if cmds := fptest.Emit(c, proto.Event{Kind: proto.EvFedLocalView, Node: 5, View: can.MakeSet(1), At: at(1)}); cmds != nil {
		t.Errorf("foreign local view produced commands: %v", cmds)
	}
	if c.Members(5) != can.EmptySet {
		t.Errorf("foreign local view absorbed: %v", c.Members(5))
	}
}
