// Command explore runs the parallel state-space exploration engine
// (internal/explore) over the 3-node join+crash scenario: a stateless model
// checker for the membership and failure-detection agreement and liveness
// properties, searching systematically permuted event orderings.
//
// Progress streams to stderr (schedules/s, frontier depth, prune rate,
// distinct states, checkpoint hit-rate and prefix-replay steps saved).
// On a violated property the counterexample schedule is
// written as a replay log and the process exits 1; `canelysim -replay FILE`
// re-executes the log against fresh protocol cores byte-for-byte.
//
// Examples:
//
//	explore -schedules 1000000 -workers 4
//	explore -naive -depth 8                      # unreduced reference walk
//	explore -no-snapshot                         # root-replay mode (A/B baseline)
//	explore -drop 0:fda -o counterexample.json   # find an injected-fault trace
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"canely/internal/can"
	"canely/internal/explore"
)

type options struct {
	scenario   string
	workers    int
	schedules  uint64
	depth      int
	deadline   time.Duration
	naive      bool
	noPrune    bool
	noPOR      bool
	noSnapshot bool
	drop       string
	out        string
	progress   time.Duration
}

// dropTypes names the injectable reception-fault frame types.
var dropTypes = map[string]can.MsgType{
	"fda":    can.TypeFDA,
	"rha":    can.TypeRHA,
	"join":   can.TypeJoin,
	"leave":  can.TypeLeave,
	"els":    can.TypeELS,
	"data":   can.TypeData,
	"gossip": can.TypeGossip,
}

// scenarioByName resolves a -scenario value through explore.Scenarios; the
// empty name selects the table's first entry, the default.
func scenarioByName(name string) (explore.Scenario, error) {
	var known []string
	for i, s := range explore.Scenarios {
		if s.Name == name || name == "" && i == 0 {
			return s.New(), nil
		}
		known = append(known, strconv.Quote(s.Name))
	}
	return explore.Scenario{}, fmt.Errorf("unknown -scenario %q (want %s)", name, strings.Join(known, " or "))
}

// scenarioHelp renders the -scenario flag's usage text from the same table.
func scenarioHelp() string {
	var known []string
	for _, s := range explore.Scenarios {
		known = append(known, fmt.Sprintf("%s (%s)", s.Name, s.Doc))
	}
	return "scenario to explore: " + strings.Join(known, " or ")
}

// buildScenario applies the option overrides to the selected scenario.
func buildScenario(o options) (explore.Scenario, error) {
	sc, err := scenarioByName(o.scenario)
	if err != nil {
		return sc, err
	}
	if o.depth > 0 {
		sc.MaxDepth = o.depth
	}
	if o.drop != "" {
		node, typ, ok := strings.Cut(o.drop, ":")
		if !ok {
			return sc, fmt.Errorf("malformed -drop %q (want node:type, e.g. 0:fda)", o.drop)
		}
		id, err := strconv.Atoi(node)
		if err != nil || !can.NodeID(id).Valid() || id >= sc.Nodes {
			return sc, fmt.Errorf("bad -drop node %q (scenario has nodes 0..%d)", node, sc.Nodes-1)
		}
		t, ok := dropTypes[strings.ToLower(typ)]
		if !ok {
			return sc, fmt.Errorf("unknown -drop frame type %q (known: fda, rha, join, leave, els, data, gossip)", typ)
		}
		sc.Drop = true
		sc.DropNode = can.NodeID(id)
		sc.DropType = t
	}
	return sc, sc.Validate()
}

// run executes one exploration and reports the exit code: 0 for a clean
// search, 1 for a violated property, 2 for unusable options.
func run(out, progress io.Writer, o options) int {
	sc, err := buildScenario(o)
	if err != nil {
		fmt.Fprintln(progress, "explore:", err)
		return 2
	}
	eng, err := explore.New(explore.Config{
		Scenario:   sc,
		Workers:    o.workers,
		Target:     o.schedules,
		Prune:      !o.naive && !o.noPrune,
		POR:        !o.naive && !o.noPOR,
		NoSnapshot: o.noSnapshot,
	})
	if err != nil {
		fmt.Fprintln(progress, "explore:", err)
		return 2
	}

	ctx := context.Background()
	if o.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}

	start := time.Now()
	done := make(chan struct{})
	tick := make(chan struct{})
	go func() {
		defer close(tick)
		if o.progress <= 0 {
			return
		}
		t := time.NewTicker(o.progress)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(progress, progressLine(eng.Stats(), time.Since(start)))
			}
		}
	}()

	res, runErr := eng.Run(ctx)
	close(done)
	<-tick
	elapsed := time.Since(start)

	fmt.Fprintln(out, progressLine(res.Stats, elapsed))
	switch {
	case res.Exhausted:
		fmt.Fprintf(out, "frontier exhausted: the bounded schedule tree (depth %d) is fully explored\n", sc.MaxDepth)
	case runErr != nil:
		fmt.Fprintf(out, "stopped at deadline: %v\n", runErr)
	}

	if v := res.Violation; v != nil {
		fmt.Fprintf(out, "VIOLATION after %d runs: %s\n", res.Runs(), v.Msg)
		fmt.Fprintf(out, "decision vector (%d choices): %v\n", len(v.Vec), v.Vec)
		if err := v.Log.SaveFile(o.out); err != nil {
			fmt.Fprintln(progress, "explore:", err)
		} else {
			fmt.Fprintf(out, "counterexample saved to %s (%d records); verify with: canelysim -replay %s\n",
				o.out, len(v.Log.Records), o.out)
		}
		return 1
	}
	fmt.Fprintf(out, "no violation in %d schedules\n", res.Schedules)
	return 0
}

// progressLine formats one stats snapshot.
func progressLine(s explore.Stats, elapsed time.Duration) string {
	// A zero (or negative, under clock skew) elapsed must report rate 0,
	// not divide toward +Inf or NaN: the first ticker firing can race the
	// engine start, and a rate of "9223372036854775807/s" in the log is
	// noise at best and breaks naive log parsers at worst.
	rate := 0.0
	if sec := elapsed.Seconds(); sec > 0 {
		rate = float64(s.Schedules) / sec
	}
	pruneRate := 0.0
	hitRate := 0.0
	if r := s.Runs(); r > 0 {
		pruneRate = 100 * float64(s.Pruned+s.Slept) / float64(r)
		hitRate = 100 * float64(s.Resumed) / float64(r)
	}
	return fmt.Sprintf("t=%-8s schedules=%d (%.0f/s) crash=%d pruned=%d slept=%d (%.1f%%) distinct=%d frontier=%d depth=%d resumed=%d (%.1f%% hit) saved=%d",
		elapsed.Truncate(100*time.Millisecond), s.Schedules, rate,
		s.CrashSchedules, s.Pruned, s.Slept, pruneRate, s.Distinct, s.Frontier, s.PeakDepth,
		s.Resumed, hitRate, s.ReplaySaved)
}

func main() {
	var o options
	flag.StringVar(&o.scenario, "scenario", explore.Scenarios[0].Name, scenarioHelp())
	flag.IntVar(&o.workers, "workers", 1, "worker pool size")
	flag.Uint64Var(&o.schedules, "schedules", 0, "stop after this many schedule runs (0 = exhaust the tree)")
	flag.IntVar(&o.depth, "depth", 0, "override the decision-depth bound (0 = scenario default)")
	flag.DurationVar(&o.deadline, "deadline", 0, "wall-clock bound for the search (0 = none)")
	flag.BoolVar(&o.naive, "naive", false, "disable all reductions (reference enumeration)")
	flag.BoolVar(&o.noPrune, "no-prune", false, "disable state-hash pruning")
	flag.BoolVar(&o.noPOR, "no-por", false, "disable the sleep-set partial-order reduction")
	flag.BoolVar(&o.noSnapshot, "no-snapshot", false, "disable checkpoint-and-branch resumption (replay every prefix from the root)")
	flag.StringVar(&o.drop, "drop", "", "inject a reception fault: node:type (e.g. 0:fda)")
	flag.StringVar(&o.out, "o", "counterexample.json", "counterexample replay log path")
	flag.DurationVar(&o.progress, "progress", time.Second, "progress reporting interval (0 = quiet)")
	flag.Parse()
	os.Exit(run(os.Stdout, os.Stderr, o))
}
