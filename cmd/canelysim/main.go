// Command canelysim runs a CANELy scenario on the simulated bus and prints
// a per-kind count of its trace events, the final membership views and the
// bus statistics. With -trace it first dumps every event, one per line: the
// frames on the wire (tx-start, tx-ok, tx-err, tx-incons), crashes and
// bus-off, and each node's protocol steps — life-signs (els), surveillance
// expiry (fd-nty), failure-sign agreement (fda-nty), RHA (rha-start,
// rha-end), join and leave requests and view changes. Only the bit-accurate
// substrate traces.
//
// Scenario events are given as comma-separated "id@offset" items, e.g.
//
//	canelysim -nodes 5 -duration 500ms -crash 2@100ms -join 5@200ms
//
// crashes node 2 at t=100ms and has a sixth node join at t=200ms.
//
// With -record FILE the run additionally captures every protocol core's
// event/command stream to FILE (JSON); -replay FILE re-executes such a
// capture against fresh cores and verifies command-for-command equality —
// no simulation is run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"canely"
	"canely/internal/prof"
	"canely/internal/replay"
)

type event struct {
	node canely.NodeID
	at   time.Duration
}

// parseEvents parses "id@offset[,id@offset...]".
func parseEvents(spec string) ([]event, error) {
	if spec == "" {
		return nil, nil
	}
	var out []event
	for _, item := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(item), "@", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("malformed event %q (want id@offset)", item)
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad node id in %q: %v", item, err)
		}
		at, err := time.ParseDuration(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad offset in %q: %v", item, err)
		}
		out = append(out, event{canely.NodeID(id), at})
	}
	return out, nil
}

func main() {
	var (
		nodes    = flag.Int("nodes", 4, "number of initially bootstrapped nodes")
		duration = flag.Duration("duration", 500*time.Millisecond, "virtual time to simulate")
		tm       = flag.Duration("tm", 50*time.Millisecond, "membership cycle period Tm")
		tb       = flag.Duration("tb", 10*time.Millisecond, "heartbeat period Tb")
		seed     = flag.Int64("seed", 1, "simulation seed")
		pCorrupt = flag.Float64("pcorrupt", 0, "per-transmission consistent corruption probability")
		pIncons  = flag.Float64("pincons", 0, "per-transmission inconsistent omission probability")
		crashes  = flag.String("crash", "", "crash events, id@offset[,...]")
		joins    = flag.String("join", "", "join events, id@offset[,...] (ids beyond -nodes are created)")
		leaves   = flag.String("leave", "", "leave events, id@offset[,...]")
		traffic  = flag.Duration("traffic", 0, "cyclic application traffic period (0 = none)")
		dual     = flag.Bool("dualmedia", false, "two replicated media; each node passes up the first copy of every frame")
		showAll  = flag.Bool("trace", false, "dump the full event trace")
		subFlag  = flag.String("substrate", "bit", "medium substrate: bit (bit-accurate, traced) or fast (frame-level, no trace)")
		record   = flag.String("record", "", "save the per-node core event/command streams to this file (JSON)")
		replayF  = flag.String("replay", "", "verify a recorded event log instead of simulating")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (pprof) to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canelysim:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "canelysim:", err)
		}
	}()

	if *replayF != "" {
		if err := verifyReplay(*replayF); err != nil {
			fmt.Fprintln(os.Stderr, "canelysim:", err)
			os.Exit(1)
		}
		return
	}

	substrate, err := canely.ParseSubstrate(*subFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canelysim:", err)
		os.Exit(2)
	}
	cfg := canely.DefaultConfig()
	cfg.Substrate = substrate
	cfg.Tm = *tm
	cfg.Tb = *tb
	cfg.Seed = *seed
	cfg.PCorrupt = *pCorrupt
	cfg.PInconsistent = *pIncons
	cfg.DualMedia = *dual
	cfg.Record = *record != ""
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "invalid configuration:", err)
		os.Exit(2)
	}

	crashEvents, err := parseEvents(*crashes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	joinEvents, err := parseEvents(*joins)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	leaveEvents, err := parseEvents(*leaves)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	net := canely.NewNetwork(cfg, *nodes)
	for _, e := range joinEvents {
		if net.Node(e.node) == nil {
			net.AddNode(e.node)
		}
	}
	// Bootstrap only the base nodes; join-event nodes integrate later.
	var view canely.NodeSet
	for i := 0; i < *nodes; i++ {
		view = view.Add(canely.NodeID(i))
	}
	for i := 0; i < *nodes; i++ {
		net.Node(canely.NodeID(i)).Bootstrap(view)
	}
	if *traffic > 0 {
		for _, nd := range net.Nodes() {
			nd.StartCyclicTraffic(1, *traffic, []byte{0xCA, 0xFE})
		}
	}

	sched := net.Scheduler()
	for _, e := range crashEvents {
		e := e
		sched.After(e.at, func() { net.Node(e.node).Crash() })
	}
	for _, e := range joinEvents {
		e := e
		sched.After(e.at, func() { net.Node(e.node).Join() })
	}
	for _, e := range leaveEvents {
		e := e
		sched.After(e.at, func() { net.Node(e.node).Leave() })
	}

	net.Run(*duration)

	if *showAll {
		net.Trace().Dump(os.Stdout)
		fmt.Println()
	}
	fmt.Println("=== event summary ===")
	if net.Trace() == nil {
		fmt.Println("(tracing disabled under the fast substrate; rerun with -substrate bit)")
	}
	fmt.Print(net.Trace().Summary())
	fmt.Println("\n=== final views ===")
	for _, nd := range net.Nodes() {
		status := "member"
		switch {
		case !nd.Alive():
			status = "crashed"
		case !nd.Member():
			status = "not a member"
		}
		fmt.Printf("  %v: %-14s view=%v life-signs=%d\n", nd.ID(), status, nd.View(), nd.LifeSigns())
	}
	fmt.Println("\n=== bus statistics ===")
	fmt.Print(net.Stats())
	u := net.Stats().Utilization(net.Rate(), net.Now())
	fmt.Printf("overall bus utilization: %.2f%% over %v\n", 100*u, net.Now())

	if *record != "" {
		if err := net.EventLog().SaveFile(*record); err != nil {
			fmt.Fprintln(os.Stderr, "canelysim:", err)
			os.Exit(1)
		}
		fmt.Printf("\nrecorded %d core events to %s\n", len(net.EventLog().Records), *record)
	}
}

// verifyReplay loads a recorded log and re-executes it on fresh cores,
// checking command-for-command equality.
func verifyReplay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	log, err := replay.Load(f)
	if err != nil {
		return err
	}
	if err := log.Verify(); err != nil {
		return err
	}
	fmt.Printf("replay OK: %d records over %d nodes reproduced exactly\n",
		len(log.Records), len(log.Nodes))
	return nil
}
