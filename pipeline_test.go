package canely

import (
	"testing"
	"time"

	"canely/internal/trace"
)

// TestTraceShowsFullCrashPipeline is a white-box sanity check that the
// crash-handling pipeline actually exercises every stage: ELS silence ->
// FDA diffusion -> fd notification -> view change at every node.
func TestTraceShowsFullCrashPipeline(t *testing.T) {
	cfg := DefaultConfig()
	net := NewNetwork(cfg, 4)
	net.BootstrapAll()
	net.Run(50 * time.Millisecond)
	net.Node(1).Crash()
	net.Run(cfg.DetectionLatencyBound() + cfg.Tm)

	tr := net.Trace()
	if tr.Count(trace.MsgNodeCrashed) != 1 {
		t.Fatalf("crash events = %d", tr.Count(trace.MsgNodeCrashed))
	}
	if tr.Count(trace.MsgELS) == 0 {
		t.Fatal("no explicit life-signs emitted")
	}
	// The three survivors each deliver exactly one fda notification.
	if got := tr.Count(trace.MsgNodeFailed); got != 3 {
		t.Fatalf("fda notifications = %d, want 3 (one per survivor)", got)
	}
	// Views changed at the three survivors.
	if got := tr.Count(trace.MsgViewChange); got != 3 {
		t.Fatalf("view changes = %d, want 3", got)
	}
}
