package fd_test

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/fd"
	"canely/internal/core/proto"
	"canely/internal/fptest"
	"canely/internal/sim"
)

func at(ms int) sim.Time { return sim.Time(time.Duration(ms) * time.Millisecond) }

// TestFDAFingerprint checks the fingerprint properties over the FDA's whole
// event surface: requests, duplicate counting, retraction and the
// reintegration reset all perturb the hash; non-FDA traffic and absorbed
// retractions do not.
func TestFDAFingerprint(t *testing.T) {
	fptest.Check(t, func() proto.Machine { return fd.NewFDA() }, []fptest.Step{
		{Name: "first request", Ev: proto.Event{Kind: proto.EvFDARequest, Node: 1}, Mutates: true},
		{Name: "repeat request", Ev: proto.Event{Kind: proto.EvFDARequest, Node: 1}, Mutates: true},
		{Name: "first sign copy", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.FDASign(1)}, Mutates: true},
		{Name: "sign for another node", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.FDASign(2)}, Mutates: true},
		{Name: "non-FDA frame", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.ELSSign(1)}},
		{Name: "cancel after a copy circulated", Ev: proto.Event{Kind: proto.EvFDACancel, Node: 2}},
		{Name: "forget at reintegration", Ev: proto.Event{Kind: proto.EvFDAForget, Node: 1}, Mutates: true},
		{Name: "fresh request", Ev: proto.Event{Kind: proto.EvFDARequest, Node: 3}, Mutates: true},
		{Name: "cancel retracts it", Ev: proto.Event{Kind: proto.EvFDACancel, Node: 3}, Mutates: true},
	})
}

// TestFDAClone checks the FDA's Clone contract at every split point of the
// same script: identical fingerprint at the split, independent evolution
// afterwards.
func TestFDAClone(t *testing.T) {
	fptest.CheckClone(t,
		func() proto.Machine { return fd.NewFDA() },
		func(c proto.Machine) proto.Machine { return c.(*fd.FDA).Clone() },
		[]fptest.Step{
			{Name: "first request", Ev: proto.Event{Kind: proto.EvFDARequest, Node: 1}, Mutates: true},
			{Name: "first sign copy", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.FDASign(1)}, Mutates: true},
			{Name: "sign for another node", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.FDASign(2)}, Mutates: true},
			{Name: "forget at reintegration", Ev: proto.Event{Kind: proto.EvFDAForget, Node: 1}, Mutates: true},
			{Name: "fresh request", Ev: proto.Event{Kind: proto.EvFDARequest, Node: 3}, Mutates: true},
		})
}

// TestDetectorFingerprint walks a detector through surveillance arming,
// activity restarts, scan expiries (local life-sign and remote silence),
// stop-with-agreement-in-flight and the late stale agreement.
func TestDetectorFingerprint(t *testing.T) {
	cfg := fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond}
	fresh := func() proto.Machine {
		d, err := fd.NewDetector(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fptest.Check(t, fresh, []fptest.Step{
		{Name: "start local surveillance", Ev: proto.Event{Kind: proto.EvFDStart, Node: 0, At: at(0)}, Mutates: true},
		{Name: "start remote surveillance", Ev: proto.Event{Kind: proto.EvFDStart, Node: 1, At: at(0)}, Mutates: true},
		{Name: "data activity restarts deadline", Ev: proto.Event{Kind: proto.EvDataNty, MID: can.DataSign(0, 1, 0), At: at(5)}, Mutates: true},
		{Name: "equal life-sign is idempotent", Ev: proto.Event{Kind: proto.EvRTRInd, MID: can.ELSSign(1), At: at(5)}},
		{Name: "activity of unmonitored node", Ev: proto.Event{Kind: proto.EvDataNty, MID: can.DataSign(0, 2, 0), At: at(6)}},
		{Name: "scan: local expiry broadcasts ELS", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFDScan, At: at(10)}, Mutates: true},
		{Name: "scan: remote silence reported to FDA", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFDScan, At: at(17)}, Mutates: true},
		{Name: "stop with agreement in flight", Ev: proto.Event{Kind: proto.EvFDStop, Node: 1}, Mutates: true},
		{Name: "late agreement suppressed", Ev: proto.Event{Kind: proto.EvFDANty, Node: 1}, Mutates: true},
	})
}

// TestDetectorClone checks the detector's Clone contract over the same
// surveillance machinery the fingerprint test exercises.
func TestDetectorClone(t *testing.T) {
	cfg := fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond}
	fresh := func() proto.Machine {
		d, err := fd.NewDetector(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fptest.CheckClone(t, fresh,
		func(c proto.Machine) proto.Machine { return c.(*fd.Detector).Clone() },
		[]fptest.Step{
			{Name: "start local surveillance", Ev: proto.Event{Kind: proto.EvFDStart, Node: 0, At: at(0)}, Mutates: true},
			{Name: "start remote surveillance", Ev: proto.Event{Kind: proto.EvFDStart, Node: 1, At: at(0)}, Mutates: true},
			{Name: "data activity restarts deadline", Ev: proto.Event{Kind: proto.EvDataNty, MID: can.DataSign(0, 1, 0), At: at(5)}, Mutates: true},
			{Name: "scan: local expiry broadcasts ELS", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFDScan, At: at(10)}, Mutates: true},
			{Name: "scan: remote silence reported to FDA", Ev: proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerFDScan, At: at(17)}, Mutates: true},
			{Name: "stop with agreement in flight", Ev: proto.Event{Kind: proto.EvFDStop, Node: 1}, Mutates: true},
		})
}
