package core_test

import (
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/core/proto"
	"canely/internal/fptest"
)

// benchNode builds a bootstrapped composite core mid-protocol — the state a
// checkpoint typically captures.
func benchNode(b *testing.B) *core.Node {
	b.Helper()
	cfg := core.Config{
		FD: fd.Config{Tb: 10 * time.Millisecond, Ttd: 2 * time.Millisecond},
		Membership: membership.Config{
			Tm:        50 * time.Millisecond,
			TjoinWait: 120 * time.Millisecond,
			RHA:       membership.RHAConfig{Trha: 5 * time.Millisecond, J: 2},
		},
	}
	n, err := core.New(0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	fptest.Emit(n, proto.Event{Kind: proto.EvBootstrap, View: can.MakeSet(0, 1), At: 0})
	fptest.Emit(n, proto.Event{Kind: proto.EvRTRInd, MID: can.JoinSign(2), At: fpAt(1)})
	fptest.Emit(n, proto.Event{Kind: proto.EvTimerFired, Timer: proto.TimerMshCycle, At: fpAt(50), Node: 0})
	return n
}

// BenchmarkNodeClone measures the checkpoint capture cost per node: one
// deep copy of all four sub-cores.
func BenchmarkNodeClone(b *testing.B) {
	n := benchNode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Clone()
	}
}

// BenchmarkNodeRestore measures the allocation-free resume path: deep-copy
// assignment into existing storage.
func BenchmarkNodeRestore(b *testing.B) {
	n := benchNode(b)
	dst := n.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Restore(n)
	}
}
