package rt

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"canely/internal/can"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/stack"
)

// liveConfig returns protocol parameters relaxed for wall-clock execution:
// periods are large against OS scheduling jitter, so the tests stay sound
// on loaded CI machines.
func liveConfig(tb, ttd, tm time.Duration) stack.Config {
	return stack.Config{
		FD: fd.Config{Tb: tb, Ttd: ttd},
		Membership: membership.Config{
			Tm:        tm,
			TjoinWait: 10 * tm,
			RHA:       membership.RHAConfig{Trha: tm / 4, J: 2},
		},
		J: 2,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLoopPostCallClose(t *testing.T) {
	before := runtime.NumGoroutine()
	l := StartLoop()
	var n atomic.Int32
	l.Post(func() { n.Add(1) })
	if !l.Call(func() { n.Add(1) }) {
		t.Fatal("Call on a running loop reported closed")
	}
	if got := n.Load(); got != 2 {
		t.Fatalf("after Call, %d effects, want 2 (Post must be ordered before)", got)
	}
	l.Close()
	l.Close() // idempotent
	if l.Call(func() { n.Add(1) }) {
		t.Fatal("Call after Close reported success")
	}
	// Close must take the loop's waker with it (its descriptor reader).
	waitFor(t, 5*time.Second, "loop goroutines to exit after Close", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

func TestLoopTimersFireOnWallClock(t *testing.T) {
	l := StartLoop()
	defer l.Close()
	const delay = 60 * time.Millisecond
	fired := make(chan time.Duration, 1)
	start := time.Now()
	l.Call(func() {
		l.Scheduler().After(delay, func() { fired <- time.Since(start) })
	})
	select {
	case got := <-fired:
		if got < delay {
			t.Fatalf("timer fired after %v, before its %v deadline", got, delay)
		}
		if got > delay+500*time.Millisecond {
			t.Fatalf("timer fired after %v, far past its %v deadline", got, delay)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}

	// Sub-millisecond deadlines: 200 chained 200-µs timers, each armed once
	// its predecessor has fired, so every one is a fresh 200-µs sleep. None
	// may fire before its deadline, and the median lateness must stay well
	// under the 1 ms tick a netpoller-rounded sleep would impose.
	const chain, step = 200, 200 * time.Microsecond
	late := make([]time.Duration, chain)
	for i := range late {
		l.Call(func() {
			l.Scheduler().After(step, func() {
				// The scheduler's clock reads the deadline while it fires.
				fired <- l.Elapsed() - time.Duration(l.Scheduler().Now())
			})
		})
		select {
		case late[i] = <-fired:
		case <-time.After(5 * time.Second):
			t.Fatalf("timer %d of %d never fired", i, chain)
		}
	}
	slices.Sort(late)
	if late[0] < 0 {
		t.Fatalf("a %v timer fired %v before its deadline", step, -late[0])
	}
	if med := late[chain/2]; med >= 500*time.Microsecond {
		t.Fatalf("%v timers fire a median %v late (max %v), want < 500µs", step, med, late[chain-1])
	}
}

func TestLoopStampsInjectedWorkWithCurrentTime(t *testing.T) {
	// Work posted while the loop sleeps must observe a scheduler clock near
	// the wall instant of injection, not the instant of the loop's last
	// wake — protocol timeouts are computed from these stamps.
	l := StartLoop()
	defer l.Close()
	time.Sleep(80 * time.Millisecond) // let the loop go idle
	var lag time.Duration
	l.Call(func() { lag = l.Elapsed() - time.Duration(l.Scheduler().Now()) })
	if lag > 50*time.Millisecond {
		t.Fatalf("scheduler clock lags wall clock by %v at injection", lag)
	}
}

// startCluster boots a broker and n bootstrapped founders on it.
func startCluster(t *testing.T, addr string, n int, scfg stack.Config, record can.NodeSet) (*Broker, []*Node) {
	t.Helper()
	broker, err := ListenBroker(addr, BrokerConfig{Rate: can.Rate125Kbps})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(broker.Close)
	// A unix listener's Addr drops the "unix:" scheme the dialer needs;
	// re-derive the dialable form from the requested address.
	dial := broker.Addr().String()
	if network, _ := SplitAddr(addr); network == "unix" {
		dial = addr
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := StartNode(NodeConfig{
			ID:     can.NodeID(i),
			Broker: dial,
			Stack:  scfg,
			Record: record.Contains(can.NodeID(i)),
			Dial:   DialConfig{BackoffMin: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		nodes[i] = nd
	}
	view := can.RangeSet(0, can.NodeID(n))
	for _, nd := range nodes {
		nd.Bootstrap(view)
	}
	return broker, nodes
}

// TestLiveJoinCrashConvergesAndReplays is the live acceptance scenario: a
// seeded three-node site over real sockets and wall-clock timers accepts a
// joiner, detects a crash, and every correct node reports the same final
// view. One node records its core event/command streams; the capture must
// re-verify on fresh pure cores, command for command.
func TestLiveJoinCrashConvergesAndReplays(t *testing.T) {
	scfg := liveConfig(120*time.Millisecond, 60*time.Millisecond, 300*time.Millisecond)
	broker, nodes := startCluster(t, "127.0.0.1:0", 3, scfg, can.MakeSet(0))

	waitFor(t, 5*time.Second, "bootstrap steady state", func() bool {
		return nodes[0].View() == can.RangeSet(0, 3)
	})

	joiner, err := StartNode(NodeConfig{
		ID: 3, Broker: broker.Addr().String(), Stack: scfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Close)
	joiner.Join()
	waitFor(t, 10*time.Second, "join to complete", func() bool {
		return joiner.Member() && nodes[0].View().Contains(3)
	})

	nodes[2].Crash()
	want := can.MakeSet(0, 1, 3)
	waitFor(t, 10*time.Second, "crash detection and agreement", func() bool {
		return nodes[0].View() == want && nodes[1].View() == want && joiner.View() == want
	})
	if v := nodes[1].View(); v != want {
		t.Fatalf("node 1 view %v, want %v", v, want)
	}

	nodes[0].Close()
	log := nodes[0].EventLog()
	if len(log.Records) == 0 {
		t.Fatal("recorded run produced no records")
	}
	if err := log.Verify(); err != nil {
		t.Fatalf("live capture does not replay: %v", err)
	}
}

// TestBrokerRestartReconnectsAndReconverges kills the broker under a
// running three-node site and restarts it on the same address: every node
// must redial with backoff, no node may wedge, and the site must still
// hold one agreed view — then prove the bus works by detecting a fresh
// crash.
func TestBrokerRestartReconnectsAndReconverges(t *testing.T) {
	// Surveillance runs at Tb+Ttd = 900 ms; the restart gap below stays
	// well under it, so the outage is bridged without false suspicions
	// (falsely excluded nodes do not auto-rejoin).
	scfg := liveConfig(600*time.Millisecond, 300*time.Millisecond, 1200*time.Millisecond)
	addr := "unix:" + filepath.Join(t.TempDir(), "canely.sock")
	broker, nodes := startCluster(t, addr, 3, scfg, 0)

	full := can.RangeSet(0, 3)
	waitFor(t, 10*time.Second, "bootstrap steady state", func() bool {
		return nodes[0].View() == full && nodes[1].View() == full && nodes[2].View() == full
	})

	broker.Close()
	waitFor(t, 5*time.Second, "nodes to notice the dead broker", func() bool {
		for _, nd := range nodes {
			if nd.Connected() {
				return false
			}
		}
		return true
	})

	broker2, err := ListenBroker(addr, BrokerConfig{Rate: can.Rate125Kbps})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(broker2.Close)
	waitFor(t, 5*time.Second, "nodes to reconnect", func() bool {
		for _, nd := range nodes {
			if !nd.Connected() {
				return false
			}
		}
		return true
	})

	// One full surveillance + membership cycle after the outage the site
	// must still agree on the full view — nobody was falsely expelled.
	time.Sleep(scfg.FD.Tb + scfg.FD.Ttd + scfg.Membership.Tm)
	for i, nd := range nodes {
		if v := nd.View(); v != full {
			t.Fatalf("node %d view %v after broker restart, want %v", i, v, full)
		}
	}

	// The restarted bus must be fully functional: a crash is detected and
	// agreed by the survivors.
	nodes[2].Crash()
	want := can.MakeSet(0, 1)
	waitFor(t, 15*time.Second, "crash detection after restart", func() bool {
		return nodes[0].View() == want && nodes[1].View() == want
	})
}

// TestLiveDualMediaSurvivesBrokerLoss runs three nodes over two brokers,
// the replicated media of NodeConfig.BrokerB, and closes broker A under
// them: the site keeps its full view on medium B alone, and still detects
// and agrees on a crash.
func TestLiveDualMediaSurvivesBrokerLoss(t *testing.T) {
	scfg := liveConfig(120*time.Millisecond, 60*time.Millisecond, 300*time.Millisecond)
	dir := t.TempDir()
	var brokers [2]*Broker
	var addrs [2]string
	for i := range brokers {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("medium%d.sock", i))
		b, err := ListenBroker(addrs[i], BrokerConfig{Rate: can.Rate125Kbps})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		brokers[i] = b
	}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nd, err := StartNode(NodeConfig{
			ID:      can.NodeID(i),
			Broker:  addrs[0],
			BrokerB: addrs[1],
			Stack:   scfg,
			Dial:    DialConfig{BackoffMin: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		nodes[i] = nd
	}
	full := can.RangeSet(0, 3)
	for _, nd := range nodes {
		nd.Bootstrap(full)
	}
	agree := func(want can.NodeSet, nodes ...*Node) func() bool {
		return func() bool {
			for _, nd := range nodes {
				if nd.View() != want {
					return false
				}
			}
			return true
		}
	}
	waitFor(t, 5*time.Second, "bootstrap steady state", agree(full, nodes...))

	brokers[0].Close()
	waitFor(t, 5*time.Second, "nodes to notice broker A is gone", func() bool {
		for _, nd := range nodes {
			if nd.Connected() {
				return false
			}
		}
		return true
	})
	time.Sleep(3 * time.Second)
	for i, nd := range nodes {
		if v := nd.View(); v != full {
			t.Fatalf("node %d view %v on medium B alone, want %v", i, v, full)
		}
	}

	nodes[2].Crash()
	waitFor(t, 10*time.Second, "crash detection and agreement on medium B", agree(can.MakeSet(0, 1), nodes[0], nodes[1]))
}

// TestMediumRejectsRateMismatch asserts the fail-fast path for
// misconfigured clusters.
func TestMediumRejectsRateMismatch(t *testing.T) {
	broker, err := ListenBroker("127.0.0.1:0", BrokerConfig{Rate: can.Rate125Kbps})
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	loop := StartLoop()
	defer loop.Close()
	_, err = DialMedium(loop, 1, DialConfig{
		Addr: broker.Addr().String(), Rate: can.Rate1Mbps,
		DialTimeout: 500 * time.Millisecond, BackoffMin: 50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial with mismatching rate succeeded")
	}
}

// TestSplitAddr pins the address syntax of the CLIs.
func TestSplitAddr(t *testing.T) {
	cases := []struct{ in, network, address string }{
		{"unix:/tmp/x.sock", "unix", "/tmp/x.sock"},
		{"tcp:127.0.0.1:80", "tcp", "127.0.0.1:80"},
		{"127.0.0.1:80", "tcp", "127.0.0.1:80"},
		{":8964", "tcp", ":8964"},
	}
	for _, c := range cases {
		n, a := SplitAddr(c.in)
		if n != c.network || a != c.address {
			t.Fatalf("SplitAddr(%q) = %q,%q want %q,%q", c.in, n, a, c.network, c.address)
		}
	}
}

func ExampleSplitAddr() {
	n, a := SplitAddr("unix:/run/canely.sock")
	fmt.Println(n, a)
	// Output: unix /run/canely.sock
}
