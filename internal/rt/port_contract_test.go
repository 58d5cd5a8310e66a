package rt

import (
	"path/filepath"
	"testing"

	"canely/internal/bus"
	"canely/internal/can"
	"canely/internal/stack"
)

// TestLivePortContract asserts the port-local half of the stack.Port
// contract — the rows of internal/stack's TestMediumConformance that do not
// need a frame to cross the wire — on the live Port, dialled to an
// in-process unix-socket broker. Every row runs inside one Loop.Call: the
// loop owns the port, so no confirmation can interleave and no row depends
// on wall-clock delivery.
func TestLivePortContract(t *testing.T) {
	dial := func(t *testing.T) (*Loop, *Medium) {
		t.Helper()
		addr := "unix:" + filepath.Join(t.TempDir(), "bus.sock")
		broker, err := ListenBroker(addr, BrokerConfig{Rate: can.Rate125Kbps})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(broker.Close)
		loop := StartLoop()
		t.Cleanup(loop.Close)
		m, err := DialMedium(loop, 3, DialConfig{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return loop, m
	}
	panics := func(fn func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		fn()
		return false
	}
	data := func(ref uint8, payload ...byte) can.Frame {
		f := can.Frame{ID: can.DataSign(0, 3, ref).Encode()}
		f.SetPayload(payload)
		return f
	}
	// request runs on the loop goroutine, where t.Fatal must not be called.
	request := func(t *testing.T, p stack.Port, f can.Frame) {
		t.Helper()
		if err := p.Request(f); err != nil {
			t.Errorf("request %v: %v", f, err)
		}
	}
	// Remote frames are the ones PendingEquivalent can see (data frames
	// never merge on the wire).
	rtr := func(r can.NodeID) can.Frame { return can.Frame{ID: can.FDASign(r).Encode(), RTR: true} }

	t.Run("attach", func(t *testing.T) {
		loop, m := dial(t)
		loop.Call(func() {
			if !panics(func() { m.Attach(4) }) {
				t.Error("attach of an identity the medium was not dialled for did not panic")
			}
			m.Attach(3)
			if !panics(func() { m.Attach(3) }) {
				t.Error("double attach did not panic")
			}
		})
	})

	t.Run("mailbox replace", func(t *testing.T) {
		loop, m := dial(t)
		loop.Call(func() {
			p := m.Attach(3).(*Port)
			f, g := data(7, 1), data(7, 2)
			request(t, p, f)
			request(t, p, g)
			if len(p.queue) != 1 || p.queue[0] != g {
				t.Errorf("shadow queue %v after a same-(ID,RTR) request, want the one replaced entry", p.queue)
			}
			request(t, p, can.Frame{ID: f.ID, RTR: true})
			if len(p.queue) != 2 {
				t.Errorf("a remote frame shares the data frame's mailbox: queue %v", p.queue)
			}
		})
	})

	t.Run("pending equivalent", func(t *testing.T) {
		loop, m := dial(t)
		loop.Call(func() {
			p := m.Attach(3)
			f := rtr(5)
			if p.PendingEquivalent(f) {
				t.Error("equivalent reported before any request")
			}
			request(t, p, f)
			if !p.PendingEquivalent(f) {
				t.Error("requested equivalent not found")
			}
			if p.PendingEquivalent(rtr(6)) {
				t.Error("a different parameter is not equivalent")
			}
		})
	})

	t.Run("abort", func(t *testing.T) {
		loop, m := dial(t)
		loop.Call(func() {
			p := m.Attach(3)
			f := rtr(9)
			request(t, p, f)
			if !p.Abort(f.ID) {
				t.Error("queued request not abortable")
			}
			if p.PendingEquivalent(f) {
				t.Error("aborted request still pending")
			}
			if p.Abort(f.ID) {
				t.Error("abort of an absent request reported a removal")
			}
		})
	})

	t.Run("crash", func(t *testing.T) {
		loop, m := dial(t)
		loop.Call(func() {
			p := m.Attach(3)
			request(t, p, rtr(1))
			p.Crash()
			p.Crash()
			if p.Operational() {
				t.Error("crashed port reports operational")
			}
			if err := p.Request(data(2)); err != bus.ErrRequestRejected {
				t.Errorf("crashed port answered a request with %v, want ErrRequestRejected", err)
			}
			if p.PendingEquivalent(rtr(1)) {
				t.Error("crash kept the queued request")
			}
		})
	})
}
