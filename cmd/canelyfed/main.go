// Command canelyfed runs one live federation gateway across canelyd
// brokers, one broker per CAN segment.
//
//	canelyd -listen unix:/tmp/seg0.sock &
//	canelyd -listen unix:/tmp/seg1.sock &
//	canelyfed -brokers unix:/tmp/seg0.sock,unix:/tmp/seg1.sock \
//	  -id 9 -member 5 -views "0-2,5;0-2,5" -duration 5s &
//	for s in 0 1; do for i in 0 1 2; do
//	  canelynode -broker unix:/tmp/seg$s.sock -id $i -bootstrap 0-2,5 \
//	    -duration 5s &
//	done; done
//
// The gateway joins every segment as an ordinary member (-member is its
// local id on each bus, -views the pre-agreed per-segment bootstrap views)
// and opens a second, raw connection per broker under its federation-wide
// identity (-id) on which site digests travel as TypeFed frames. On exit it
// prints its final cross-segment site view; gateways bridging the same
// segments must print identical lines.
//
// -record FILE captures the federation core's event/command stream for
// offline re-verification with `canelysim -replay FILE`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"canely/internal/can"
	"canely/internal/core/fd"
	"canely/internal/core/membership"
	"canely/internal/rt"
	"canely/internal/stack"
)

// parseViews parses semicolon-separated per-segment view specs.
func parseViews(spec string) ([]can.NodeSet, error) {
	var views []can.NodeSet
	for _, chunk := range strings.Split(spec, ";") {
		v, err := can.ParseSet(chunk)
		if err != nil {
			return nil, err
		}
		views = append(views, v)
	}
	return views, nil
}

// parseSegments parses a comma-separated segment id list.
func parseSegments(spec string) ([]can.NodeID, error) {
	if spec == "" {
		return nil, nil
	}
	var segs []can.NodeID
	for _, item := range strings.Split(spec, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(item))
		if err != nil {
			return nil, fmt.Errorf("malformed segment id %q", item)
		}
		segs = append(segs, can.NodeID(id))
	}
	return segs, nil
}

func main() {
	var (
		brokers  = flag.String("brokers", "", "comma-separated broker addresses, one per segment")
		id       = flag.Int("id", 9, "federation-wide gateway identity (digest source)")
		member   = flag.Int("member", 5, "the gateway's member identity on every segment bus")
		segments = flag.String("segments", "", "comma-separated segment ids (default 0,1,...)")
		viewSpec = flag.String("views", "", "semicolon-separated pre-agreed bootstrap views, one per broker, e.g. 0-2,5;0-2,5")
		site     = flag.String("site", "", "pre-agreed initial site view (default: the segment ids)")
		duration = flag.Duration("duration", 3*time.Second, "wall-clock run time before reporting the final site view")
		crash    = flag.Duration("crash", 0, "fail-silent this long after start (0 = never)")
		tb       = flag.Duration("tb", 150*time.Millisecond, "heartbeat period Tb")
		ttd      = flag.Duration("ttd", 50*time.Millisecond, "assumed transmission delay bound Ttd")
		tm       = flag.Duration("tm", 400*time.Millisecond, "membership cycle period Tm")
		tjoin    = flag.Duration("tjoinwait", 2*time.Second, "maximum join wait delay (>> Tm)")
		trha     = flag.Duration("trha", 100*time.Millisecond, "RHA maximum termination time (< Tm)")
		jBound   = flag.Int("j", 2, "inconsistent omission degree bound")
		tann     = flag.Duration("tann", 300*time.Millisecond, "digest announcement period Tann")
		tstale   = flag.Duration("tstale", 1200*time.Millisecond, "remote segment staleness bound Tstale (>= 4*Tann)")
		record   = flag.String("record", "", "save the federation event/command stream to this file (JSON)")
		verbose  = flag.Bool("v", false, "log site changes as they happen")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if *verbose {
			fmt.Fprintf(os.Stderr, "gateway %d: "+format+"\n", append([]any{*id}, args...)...)
		}
	}

	addrs := strings.Split(*brokers, ",")
	if *brokers == "" || len(addrs) < 2 {
		fmt.Fprintln(os.Stderr, "-brokers must list at least two broker addresses")
		os.Exit(2)
	}
	views, err := parseViews(*viewSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	segs, err := parseSegments(*segments)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if segs == nil {
		for i := range addrs {
			segs = append(segs, can.NodeID(i))
		}
	}
	siteView, err := can.ParseSet(*site)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if siteView == 0 {
		for _, s := range segs {
			siteView = siteView.Add(s)
		}
	}

	cfg := rt.GatewayConfig{
		ID:       can.NodeID(*id),
		Member:   can.NodeID(*member),
		Brokers:  addrs,
		Segments: segs,
		Views:    views,
		Stack: stack.Config{
			FD: fd.Config{Tb: *tb, Ttd: *ttd},
			Membership: membership.Config{
				Tm:        *tm,
				TjoinWait: *tjoin,
				RHA:       membership.RHAConfig{Trha: *trha, J: *jBound},
			},
			J: *jBound,
		},
		Tann:   *tann,
		Tstale: *tstale,
		Record: *record != "",
		Dial:   rt.DialConfig{Logf: logf},
	}
	g, err := rt.StartGateway(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	g.OnSiteChange(func(active, failed can.NodeSet) {
		logf("site change: active=%v failed=%v", active, failed)
	})

	logf("bootstrapping site %v over %d segments", siteView, len(addrs))
	if err := g.Bootstrap(siteView); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	end := time.After(*duration)
	var crashC <-chan time.Time
	if *crash > 0 {
		crashC = time.After(*crash)
	}
	for done := false; !done; {
		select {
		case <-crashC:
			logf("crashing")
			g.Crash()
			crashC = nil
		case <-end:
			done = true
		}
	}

	// The canonical agreement line: every correct gateway bridging the same
	// segments must print an identical site view.
	fmt.Printf("gateway %d final site %v alive=%t\n", *id, g.SiteView(), g.Alive())

	g.Close()
	if *record != "" {
		if err := g.EventLog().SaveFile(*record); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logf("recorded %d federation events to %s", len(g.EventLog().Records), *record)
	}
}
