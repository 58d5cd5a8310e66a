// Command canelynode runs one live CANELy site against a canelyd broker.
//
//	canelyd -listen unix:/tmp/canely.sock &
//	for i in 0 1 2 3 4; do
//	  canelynode -broker unix:/tmp/canely.sock -id $i -bootstrap 0-4 \
//	    -duration 3s &
//	done
//
// Each process assembles the full protocol stack — failure detection,
// failure-sign diffusion, reception-history agreement and site membership —
// over a socket connection to the broker, driven by wall-clock timers.
// Every process prints its final membership view on exit in an identical
// format, so agreement across a cluster is one `sort | uniq` away.
//
// Scenario flags: -bootstrap installs a pre-agreed initial view (every
// founding member must be given the same set); -join integrates into a
// running site instead; -leave and -crash schedule departure at an offset
// from start. -record FILE captures the node's core event/command stream
// for offline re-verification with `canelysim -replay FILE`.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"canely/internal/can"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/rt"
	"canely/internal/stack"
)

func main() {
	var (
		broker   = flag.String("broker", ":8964", "broker address, unix:/path or [tcp:]host:port")
		brokerB  = flag.String("brokerb", "", "second broker for replicated media (optional)")
		id       = flag.Int("id", 0, "node identity")
		boot     = flag.String("bootstrap", "", "pre-agreed initial view, e.g. 0-4 or 0,2,5 (founding members only)")
		join     = flag.Bool("join", false, "join a running site instead of bootstrapping")
		duration = flag.Duration("duration", 3*time.Second, "wall-clock run time before reporting the final view")
		leave    = flag.Duration("leave", 0, "voluntarily leave this long after start (0 = never)")
		crash    = flag.Duration("crash", 0, "fail-silent this long after start (0 = never)")
		tb       = flag.Duration("tb", 150*time.Millisecond, "heartbeat period Tb")
		ttd      = flag.Duration("ttd", 50*time.Millisecond, "assumed transmission delay bound Ttd")
		tm       = flag.Duration("tm", 400*time.Millisecond, "membership cycle period Tm")
		tjoin    = flag.Duration("tjoinwait", 2*time.Second, "maximum join wait delay (>> Tm)")
		trha     = flag.Duration("trha", 100*time.Millisecond, "RHA maximum termination time (< Tm)")
		jBound   = flag.Int("j", 2, "inconsistent omission degree bound")
		traffic  = flag.Duration("traffic", 0, "cyclic application traffic period (0 = none)")
		record   = flag.String("record", "", "save the core event/command stream to this file (JSON)")
		verbose  = flag.Bool("v", false, "log membership changes and link state as they happen")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if *verbose {
			fmt.Fprintf(os.Stderr, "node %d: "+format+"\n", append([]any{*id}, args...)...)
		}
	}

	view, err := can.ParseSet(*boot)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if (view == 0) == !*join {
		fmt.Fprintln(os.Stderr, "exactly one of -bootstrap and -join is required")
		os.Exit(2)
	}

	cfg := rt.NodeConfig{
		ID:      can.NodeID(*id),
		Broker:  *broker,
		BrokerB: *brokerB,
		Stack: stack.Config{
			FD: fd.Config{Tb: *tb, Ttd: *ttd},
			Membership: membership.Config{
				Tm:        *tm,
				TjoinWait: *tjoin,
				RHA:       membership.RHAConfig{Trha: *trha, J: *jBound},
			},
			J: *jBound,
		},
		Record: *record != "",
		Dial:   rt.DialConfig{Logf: logf},
	}
	n, err := rt.StartNode(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	n.OnChange(func(c membership.Change) {
		logf("membership change: active=%v failed=%v", c.Active, c.Failed)
	})

	if *join {
		logf("joining via %s", *broker)
		n.Join()
	} else {
		logf("bootstrapping view %v", view)
		n.Bootstrap(view)
	}
	if *traffic > 0 {
		n.StartCyclicTraffic(1, *traffic, []byte("live"))
	}

	end := time.After(*duration)
	var leaveC, crashC <-chan time.Time
	if *leave > 0 {
		leaveC = time.After(*leave)
	}
	if *crash > 0 {
		crashC = time.After(*crash)
	}
	for done := false; !done; {
		select {
		case <-leaveC:
			logf("leaving")
			n.Leave()
			leaveC = nil
		case <-crashC:
			logf("crashing")
			n.Crash()
			crashC = nil
		case <-end:
			done = true
		}
	}

	// The canonical agreement line: every correct process in a cluster must
	// print an identical view.
	fmt.Printf("node %d final view %v member=%t alive=%t\n",
		*id, n.View(), n.Member(), n.Alive())

	n.Close()
	if *record != "" {
		if err := n.EventLog().SaveFile(*record); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logf("recorded %d core events to %s", len(n.EventLog().Records), *record)
	}
}
