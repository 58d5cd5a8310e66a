package rt

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/wire"
)

// dialBroker handshakes a raw protocol client against a test broker.
func dialBroker(t *testing.T, b *Broker, id can.NodeID, role wire.Role) net.Conn {
	t.Helper()
	conn, err := net.Dial(b.Addr().Network(), b.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := wire.Write(conn, wire.Msg{Kind: wire.KindHello, Node: id, Role: role}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	welcome, err := wire.Read(conn)
	if err != nil || welcome.Kind != wire.KindWelcome {
		t.Fatalf("welcome: %v (%v)", err, welcome.Kind)
	}
	return conn
}

// TestTapFanOutAndMetrics: passive taps see every delivered frame without
// holding a controller identity, and /metrics reports the load counters.
func TestTapFanOutAndMetrics(t *testing.T) {
	b, err := ListenBroker("127.0.0.1:0", BrokerConfig{MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const taps = 40
	tapConns := make([]net.Conn, taps)
	for i := range tapConns {
		tapConns[i] = dialBroker(t, b, 0, wire.RoleTap)
		defer tapConns[i].Close()
	}

	sender := dialBroker(t, b, 1, wire.RoleNode)
	defer sender.Close()

	const frames = 10
	for i := 0; i < frames; i++ {
		f := can.Frame{ID: uint32(0x100 + i), DLC: 1}
		if err := wire.Write(sender, wire.Msg{Kind: wire.KindRequest, Frame: f}); err != nil {
			t.Fatalf("request: %v", err)
		}
	}

	// Every tap must observe all frames, in bus order.
	for i, conn := range tapConns {
		r := bufio.NewReader(conn)
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for j := 0; j < frames; j++ {
			m, err := wire.Read(r)
			if err != nil {
				t.Fatalf("tap %d frame %d: %v", i, j, err)
			}
			if m.Kind != wire.KindFrame || m.Frame.ID != uint32(0x100+j) {
				t.Fatalf("tap %d got %v id %#x, want frame %#x", i, m.Kind, m.Frame.ID, 0x100+j)
			}
			if m.Own {
				t.Fatalf("tap %d frame %d flagged own", i, j)
			}
		}
	}

	m := b.Metrics()
	if m.Taps != taps || m.Conns != 1 {
		t.Fatalf("metrics gauges = %d taps / %d conns, want %d / 1", m.Taps, m.Conns, taps)
	}
	if m.FramesDelivered < frames {
		t.Fatalf("frames delivered = %d, want >= %d", m.FramesDelivered, frames)
	}
	// Fan-out wrote at least taps*frames messages plus the sender's own
	// indications and confirms.
	if m.MsgsSent < taps*frames {
		t.Fatalf("msgs sent = %d, want >= %d", m.MsgsSent, taps*frames)
	}

	url := b.MetricsURL()
	if url == "" {
		t.Fatal("no metrics URL")
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("metrics get: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"canelyd_connections 1", "canelyd_taps 40",
		"canelyd_frames_delivered_total", "canelyd_queue_overflows_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestSlowTapDroppedBoundedQueue: a tap that never reads must be dropped
// once its backlog exceeds the socket buffer plus QueueDepth — bounded
// backpressure — while healthy clients on other shards keep flowing.
func TestSlowTapDroppedBoundedQueue(t *testing.T) {
	// Unix socket: its kernel buffers are small and fixed, so the unread
	// backlog hits the broker's own queue bound in seconds (TCP loopback
	// buffers autotune to megabytes and would absorb the whole test).
	// Shards: 4 pins each client to its own writer, so the slow tap's
	// write stall cannot delay (and overflow) the others' queues.
	b, err := ListenBroker("unix:"+t.TempDir()+"/broker.sock", BrokerConfig{
		Shards:       4,
		QueueDepth:   256,
		WriteTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	slow := dialBroker(t, b, 0, wire.RoleTap) // never reads after Welcome
	defer slow.Close()
	healthy := dialBroker(t, b, 0, wire.RoleTap)
	defer healthy.Close()
	sender := dialBroker(t, b, 1, wire.RoleNode)
	defer sender.Close()
	// Drain the healthy connections in the background: this test only
	// watches the broker's counters.
	var healthyFrames atomic.Int64
	go func() {
		r := bufio.NewReader(healthy)
		for {
			if _, err := wire.Read(r); err != nil {
				return
			}
			healthyFrames.Add(1)
		}
	}()
	go func() {
		r := bufio.NewReader(sender)
		for {
			if _, err := wire.Read(r); err != nil {
				return
			}
		}
	}()

	waitFor(t, 5*time.Second, "both taps and the sender to register", func() bool {
		m := b.Metrics()
		return m.Taps == 2 && m.Conns == 1
	})

	// Keep the port's transmit queue full of distinct-ID requests so the
	// bus streams frames back-to-back at full rate; the unread tap's
	// backlog then outgrows its socket buffer and the broker's queue
	// bound in a few wall seconds. The tap gauge falls only once the
	// dropped connection's reader has exited.
	deadline := time.Now().Add(60 * time.Second)
	next := uint32(0)
	for {
		m := b.Metrics()
		if m.Conns != 1 {
			t.Fatalf("sender dropped while the slow tap backed up: %+v", m)
		}
		if m.Taps == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow tap was never dropped: queue growth is not bounded (%+v)", m)
		}
		for i := 0; i < 256; i++ {
			f := can.Frame{ID: 0x200 + next%(1<<20), DLC: 8}
			next++
			if err := wire.Write(sender, wire.Msg{Kind: wire.KindRequest, Frame: f}); err != nil {
				t.Fatalf("request: %v", err)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The dropped tap must be the slow one: the broker closed its
	// connection, so its backlog reads out and ends in EOF or a reset,
	// not in the read deadline...
	_ = slow.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1<<16)
	var readErr error
	for readErr == nil {
		_, readErr = slow.Read(buf)
	}
	if !errors.Is(readErr, io.EOF) && !errors.Is(readErr, syscall.ECONNRESET) {
		t.Fatalf("slow tap connection ended with %v, want EOF or reset (dropped)", readErr)
	}
	// ...while the healthy tap kept receiving frames.
	if healthyFrames.Load() == 0 {
		t.Fatal("healthy tap starved while the slow tap backed up")
	}
}
