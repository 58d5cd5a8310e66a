package fd

// Pure-core tests: drive the sans-I/O state machines event by event and
// assert on the exact command streams, no bus or scheduler involved.

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/proto"
	"canely/internal/fptest"
	"canely/internal/sim"
)

var coreCfg = Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond}

func wantCmds(t *testing.T, got []proto.Command, want ...proto.Command) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("commands = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("command %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFDACoreRequestAndClusteredDedup(t *testing.T) {
	f := NewFDA()
	wantCmds(t, fptest.Emit(f, proto.Event{Kind: proto.EvFDARequest, Node: 9}),
		proto.SendRTR(can.FDASign(9)))
	// A second local request while the first is outstanding is absorbed.
	wantCmds(t, fptest.Emit(f, proto.Event{Kind: proto.EvFDARequest, Node: 9}))
	// First observed copy (own transmission): deliver upward; the local
	// request is already outstanding, so no re-request is emitted.
	wantCmds(t, fptest.Emit(f, proto.Event{Kind: proto.EvRTRInd, MID: can.FDASign(9)}),
		proto.FDANty(9))
	// Later copies are silent.
	wantCmds(t, fptest.Emit(f, proto.Event{Kind: proto.EvRTRInd, MID: can.FDASign(9)}))
	if f.Duplicates(9) != 2 {
		t.Fatalf("duplicates = %d, want 2", f.Duplicates(9))
	}
}

func TestFDACoreFirstCopyTriggersEagerRediffusion(t *testing.T) {
	f := NewFDA()
	// A copy arrives with no local request outstanding: notify and
	// re-request (guarded against an equivalent pending frame).
	wantCmds(t, fptest.Emit(f, proto.Event{Kind: proto.EvRTRInd, MID: can.FDASign(7)}),
		proto.FDANty(7),
		proto.SendRTRUnlessPending(can.FDASign(7)))
}

// TestDetectorCoreStopRetractsInFlightFDA is the pure-core regression for
// the stale-expiry fix: Stop between surveillance expiry and the FDA
// agreement must retract the request and suppress the late notification.
func TestDetectorCoreStopRetractsInFlightFDA(t *testing.T) {
	d, err := NewDetector(1, coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	period := coreCfg.Tb + coreCfg.Ttd
	wantCmds(t, fptest.Emit(d, proto.Event{Kind: proto.EvFDStart, Node: 0}),
		proto.SetTimer(proto.TimerFDScan, period))
	// Silence: the surveillance deadline expires.
	at := sim.Time(0).Add(period)
	wantCmds(t, fptest.Emit(d, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFDScan, At: at}),
		proto.TraceTimerExpired(0),
		proto.FDARequest(0))
	// Surveillance is disabled while the failure-sign is in flight: the
	// detector must retract its request.
	wantCmds(t, fptest.Emit(d, proto.Event{Kind: proto.EvFDStop, Node: 0}),
		proto.FDACancel(0))
	// The agreement still completes (another node also reported, or the
	// frame already left the queue): the stale notification is dropped.
	wantCmds(t, fptest.Emit(d, proto.Event{Kind: proto.EvFDANty, Node: 0}))
	if d.Monitoring(0) {
		t.Fatal("node still monitored after Stop")
	}
	// A fresh Start clears the suppression: the next agreement delivers.
	fptest.Emit(d, proto.Event{Kind: proto.EvFDStart, Node: 0, At: at})
	got := fptest.Emit(d, proto.Event{Kind: proto.EvFDANty, Node: 0})
	if len(got) != 2 || got[1] != proto.FDNty(0) {
		t.Fatalf("post-restart agreement = %v, want trace+fd-nty", got)
	}
}

func TestFDACoreCancelOnlyBeforeFirstCopy(t *testing.T) {
	f := NewFDA()
	// Cancel with no outstanding request: no-op.
	wantCmds(t, fptest.Emit(f, proto.Event{Kind: proto.EvFDACancel, Node: 3}))
	// Request then cancel before any copy circulated: abort the frame.
	fptest.Emit(f, proto.Event{Kind: proto.EvFDARequest, Node: 3})
	wantCmds(t, fptest.Emit(f, proto.Event{Kind: proto.EvFDACancel, Node: 3}),
		proto.Abort(can.FDASign(3)))
	// Once a copy has circulated the sign is public knowledge: a later
	// cancel must not retract the diffusion.
	fptest.Emit(f, proto.Event{Kind: proto.EvFDARequest, Node: 4})
	fptest.Emit(f, proto.Event{Kind: proto.EvRTRInd, MID: can.FDASign(4)})
	wantCmds(t, fptest.Emit(f, proto.Event{Kind: proto.EvFDACancel, Node: 4}))
}

func TestDetectorCoreScanChasesEarliestDeadline(t *testing.T) {
	d, err := NewDetector(0, coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Local surveillance at Tb, remote at Tb+Ttd: the scan timer arms for
	// the earlier (local) deadline and is not moved by the later one.
	wantCmds(t, fptest.Emit(d, proto.Event{Kind: proto.EvFDStart, Node: 0}),
		proto.SetTimer(proto.TimerFDScan, coreCfg.Tb))
	wantCmds(t, fptest.Emit(d, proto.Event{Kind: proto.EvFDStart, Node: 1}))
	// The local expiry emits an ELS, re-arms its own backstop (Tb ahead),
	// then re-targets the scan at the surviving remote deadline (Ttd
	// ahead) — the chase emits both timer commands, last one wins.
	at := sim.Time(0).Add(coreCfg.Tb)
	got := fptest.Emit(d, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFDScan, At: at})
	want := []proto.Command{
		proto.TraceELS(),
		proto.SendRTR(can.ELSSign(0)),
		proto.SetTimer(proto.TimerFDScan, coreCfg.Tb),
		proto.SetTimer(proto.TimerFDScan, coreCfg.Ttd),
	}
	wantCmds(t, got, want...)
	if d.LifeSigns() != 1 {
		t.Fatalf("life-signs = %d", d.LifeSigns())
	}
}

func TestDetectorCoreActivityRestartsSurveillance(t *testing.T) {
	d, err := NewDetector(1, coreCfg)
	if err != nil {
		t.Fatal(err)
	}
	fptest.Emit(d, proto.Event{Kind: proto.EvFDStart, Node: 0})
	// Traffic from node 0 pushes its deadline; the pending scan stays (it
	// fires early and chases), so no command is emitted.
	act := proto.Event{Kind: proto.EvDataNty, At: sim.Time(5 * time.Millisecond),
		MID: can.DataSign(0, 0, 1)}
	wantCmds(t, fptest.Emit(d, act))
	// The early scan finds nothing expired and re-arms at the new deadline.
	at := sim.Time(coreCfg.Tb + coreCfg.Ttd)
	wantCmds(t, fptest.Emit(d, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFDScan, At: at}),
		proto.SetTimer(proto.TimerFDScan, sim.Time(5*time.Millisecond).Add(coreCfg.Tb+coreCfg.Ttd).Sub(at)))
}
