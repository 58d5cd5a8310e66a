package trace

import (
	"strings"
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/sim"
)

func TestEmitAndFilter(t *testing.T) {
	now := sim.Time(0)
	tr := New(func() sim.Time { return now })
	tr.Emit(Event{Msg: MsgNodeCrashed, Node: 3})
	now = sim.Time(5 * time.Millisecond)
	tr.Emit(Event{Msg: MsgTimerExpired, Node: 1, Subject: 7})
	tr.Emit(Event{Msg: MsgNodeCrashed, Node: 4})

	if got := tr.Count(MsgNodeCrashed); got != 2 {
		t.Fatalf("crash count = %d", got)
	}
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatal("Events length wrong")
	}
	if ev[1].At != sim.Time(5*time.Millisecond) || ev[1].Text() != "timer expired for n07" {
		t.Fatalf("event = %+v, text %q", ev[1], ev[1].Text())
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Emit(Event{Msg: MsgNodeCrashed}) // must not panic
	if tr.Events() != nil || tr.Count(MsgNodeCrashed) != 0 {
		t.Fatal("nil trace should be empty")
	}
	if tr.Summary() != "" {
		t.Fatal("nil summary should be empty")
	}
}

func TestDumpAndSummary(t *testing.T) {
	tr := New(nil)
	tr.Emit(Event{Msg: MsgELS, Node: 1})
	tr.Emit(Event{Msg: MsgELS, Node: 2})
	tr.Emit(Event{Msg: MsgNodeCrashed, Node: -1})
	var sb strings.Builder
	tr.Dump(&sb)
	if n := strings.Count(sb.String(), "\n"); n != 3 {
		t.Fatalf("dump lines = %d", n)
	}
	if !strings.Contains(sb.String(), "bus") {
		t.Fatal("node -1 should render as bus")
	}
	if sum, want := tr.Summary(), "crash        1\nels          2\n"; sum != want {
		t.Fatalf("summary = %q, want %q", sum, want)
	}
}

func TestEventString(t *testing.T) {
	f := can.Frame{ID: can.ELSSign(3).Encode(), RTR: true}
	e := Event{At: sim.Time(time.Millisecond), Msg: MsgTxStart, Node: -1, Frame: f, Nodes: can.EmptySet.Add(3), N: 2}
	want := "         1ms tx-start   bus  " + f.String() + " senders={n03} attempt=2"
	if s := e.String(); s != want {
		t.Fatalf("String = %q, want %q", s, want)
	}
	e = Event{Msg: MsgViewChange, Node: 7, Old: can.EmptySet.Add(1).Add(2), New: can.EmptySet.Add(2)}
	if s := e.String(); !strings.HasSuffix(s, "view-change n07  view {n01,n02} -> {n02}") {
		t.Fatalf("String = %q", s)
	}
}

// TestEveryMsgRenders fails on a message added without its label or text.
func TestEveryMsgRenders(t *testing.T) {
	for m := MsgNone + 1; m < numMsgs; m++ {
		if m.Kind() == "" || (Event{Msg: m}).Text() == "" {
			t.Errorf("msg %d: kind %q, text %q", m, m.Kind(), Event{Msg: m}.Text())
		}
	}
	if MsgNone.Kind() != "" || numMsgs.Kind() != "" {
		t.Fatal("MsgNone and out-of-range messages must have no label")
	}
}

// TestEmitAllocFree pins that tracing formats nothing: once the event slice
// has room, Emit is a copy.
func TestEmitAllocFree(t *testing.T) {
	now := sim.Time(0)
	tr := New(func() sim.Time { return now })
	e := Event{Msg: MsgTxIncons, Node: -1, Frame: can.Frame{ID: 1, DLC: 8}, Nodes: can.EmptySet.Add(2), Crash: true}
	for i := 0; i < 200; i++ {
		tr.Emit(e)
	}
	tr.events = tr.events[:0]
	if n := testing.AllocsPerRun(100, func() { now++; tr.Emit(e) }); n != 0 {
		t.Fatalf("Emit allocated %v objects per call, want 0", n)
	}
}
