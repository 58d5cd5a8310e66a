package fptest_test

import (
	"testing"

	"canely/internal/can"
	"canely/internal/core"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/core/proto"
	"canely/internal/federation"
	"canely/internal/fptest"
	"canely/internal/gossip"
)

// Every protocol core is a proto.Machine. A core that drifts from the
// contract fails to build here, by name, rather than at whichever explorer,
// replay or binding call site happens to hold it behind the interface.
var (
	_ proto.Machine = (*core.Node)(nil)
	_ proto.Machine = (*fd.FDA)(nil)
	_ proto.Machine = (*fd.Detector)(nil)
	_ proto.Machine = (*membership.RHA)(nil)
	_ proto.Machine = (*membership.Protocol)(nil)
	_ proto.Machine = (*federation.Core)(nil)
	_ proto.Machine = (*gossip.Core)(nil)
)

// TestEmit pins the helper the cores' tests step through: it returns what
// StepInto appended, and nil — not an empty slice — for an absorbed event.
func TestEmit(t *testing.T) {
	f := fd.NewFDA()
	got := fptest.Emit(f, proto.Event{Kind: proto.EvFDARequest, Node: 9})
	if len(got) != 1 || got[0] != proto.SendRTR(can.FDASign(9)) {
		t.Fatalf("first request emitted %v, want one send-rtr", got)
	}
	if got := fptest.Emit(f, proto.Event{Kind: proto.EvFDARequest, Node: 9}); got != nil {
		t.Fatalf("absorbed request emitted %v, want nil", got)
	}
}
