// Command campaign runs a parallel Monte-Carlo simulation campaign: a
// parameter grid over the CANELy configuration × a seed sweep, fanned out
// over a worker pool (internal/campaign), with the metrics of every run —
// for the default study the failure-detector QoS: detection latency,
// mistaken suspicions, agreement violations — reduced to statistical
// aggregates. -study selects the sweep from experiments.Studies; every
// study prints and exports the same campaign.Report. Aggregates are
// deterministic: the same grid and seeds produce byte-identical JSON at any
// -workers value.
//
// Examples:
//
//	campaign -grid "tb=5ms,10ms,20ms" -seeds 200 -o report.json
//	campaign -grid "tb=10ms;pcorrupt=0,0.01" -seeds 1000 -csv report.csv
//	campaign -study federation -nodes 4 -seeds 20
//	campaign -study gossip
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"canely"
	"canely/internal/campaign"
	"canely/internal/experiments"
	"canely/internal/prof"
)

// The knob tables map grid keys to configuration setters; the table a key
// lives in decides how its values parse.
var durationKnobs = map[string]func(*canely.Config, time.Duration){
	"tb":        func(c *canely.Config, v time.Duration) { c.Tb = v },
	"tm":        func(c *canely.Config, v time.Duration) { c.Tm = v },
	"ttd":       func(c *canely.Config, v time.Duration) { c.Ttd = v },
	"trha":      func(c *canely.Config, v time.Duration) { c.Trha = v },
	"tjoinwait": func(c *canely.Config, v time.Duration) { c.TjoinWait = v },
}

var floatKnobs = map[string]func(*canely.Config, float64){
	"pcorrupt":      func(c *canely.Config, v float64) { c.PCorrupt = v },
	"pinconsistent": func(c *canely.Config, v float64) { c.PInconsistent = v },
}

var intKnobs = map[string]func(*canely.Config, int){
	"j": func(c *canely.Config, v int) { c.J = v },
	"k": func(c *canely.Config, v int) { c.K = v },
}

// parseGrid turns "tb=5ms,10ms;pcorrupt=0,0.01" into campaign axes.
func parseGrid(spec string) ([]campaign.Axis, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var axes []campaign.Axis
	for _, part := range strings.Split(spec, ";") {
		key, vals, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || vals == "" {
			return nil, fmt.Errorf("axis %q: want key=v1,v2,...", part)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		ax := campaign.Axis{Name: key}
		for _, raw := range strings.Split(vals, ",") {
			raw = strings.TrimSpace(raw)
			var av campaign.AxisValue
			switch {
			case durationKnobs[key] != nil:
				d, err := time.ParseDuration(raw)
				if err != nil {
					return nil, fmt.Errorf("axis %q: bad duration %q: %v", key, raw, err)
				}
				apply := durationKnobs[key]
				av = campaign.AxisValue{Label: d.String(), Apply: func(c *canely.Config) { apply(c, d) }, Value: d}
			case floatKnobs[key] != nil:
				f, err := strconv.ParseFloat(raw, 64)
				if err != nil {
					return nil, fmt.Errorf("axis %q: bad float %q: %v", key, raw, err)
				}
				apply := floatKnobs[key]
				av = campaign.AxisValue{Label: raw, Apply: func(c *canely.Config) { apply(c, f) }, Value: f}
			case intKnobs[key] != nil:
				n, err := strconv.Atoi(raw)
				if err != nil {
					return nil, fmt.Errorf("axis %q: bad int %q: %v", key, raw, err)
				}
				apply := intKnobs[key]
				av = campaign.AxisValue{Label: raw, Apply: func(c *canely.Config) { apply(c, n) }, Value: n}
			default:
				return nil, fmt.Errorf("unknown grid key %q (known: tb, tm, ttd, trha, tjoinwait, pcorrupt, pinconsistent, j, k)", key)
			}
			ax.Values = append(ax.Values, av)
		}
		axes = append(axes, ax)
	}
	return axes, nil
}

// studyByName resolves a -study value through experiments.Studies; the
// empty name selects the table's first entry, the default.
func studyByName(name string) (experiments.Study, error) {
	var known []string
	for i, st := range experiments.Studies {
		if st.Name == name || name == "" && i == 0 {
			return st, nil
		}
		known = append(known, strconv.Quote(st.Name))
	}
	return experiments.Study{}, fmt.Errorf("unknown -study %q (want %s)", name, strings.Join(known, " or "))
}

// studyHelp renders the -study flag's usage text from the same table.
func studyHelp() string {
	var known []string
	for _, st := range experiments.Studies {
		known = append(known, fmt.Sprintf("%s (%s)", st.Name, st.Doc))
	}
	return "study to run: " + strings.Join(known, "; ")
}

func main() {
	var (
		grid      = flag.String("grid", "", "parameter grid: \"key=v1,v2;key2=...\" over tb, tm, ttd, trha, tjoinwait, pcorrupt, pinconsistent, j, k, swept on top of the study's own axis")
		nodes     = flag.Int("nodes", 8, "network size per run (per segment for -study federation)")
		seeds     = flag.Int("seeds", 50, "seeded trials per grid point")
		seed      = flag.Int64("seed", 1, "first seed of the sweep")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		substrate = flag.String("substrate", "fast", "medium substrate: fast (frame-level) or bit (bit-accurate); both produce identical campaign results")
		out       = flag.String("o", "", "write the aggregate report as JSON to this path")
		csvOut    = flag.String("csv", "", "write the aggregate report as CSV to this path")
		studyName = flag.String("study", experiments.Studies[0].Name, studyHelp())
		quiet     = flag.Bool("q", false, "suppress the progress meter")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (pprof) to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		}
	}()

	study, err := studyByName(*studyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(2)
	}
	axes, err := parseGrid(*grid)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(2)
	}
	if *nodes < 2 {
		fmt.Fprintln(os.Stderr, "campaign: -nodes must be at least 2")
		os.Exit(2)
	}
	// A campaign with no runs has no aggregates — reject it up front rather
	// than emit a report of NaNs.
	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "campaign: -seeds must be at least 1 (a zero-run campaign has no aggregates)")
		os.Exit(2)
	}
	sub, err := canely.ParseSubstrate(*substrate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(2)
	}
	cfg := canely.DefaultConfig()
	cfg.Substrate = sub
	spec := study.Spec(cfg, *nodes, axes, campaign.SeedRange{Base: *seed, N: *seeds})
	if spec.TotalRuns() == 0 {
		fmt.Fprintln(os.Stderr, "campaign: the grid × seeds intersection is empty; nothing to run")
		os.Exit(2)
	}

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	runner := campaign.Runner{Workers: *workers}
	if !*quiet {
		lastTenth := -1
		runner.Progress = func(done, total int) {
			if tenth := done * 10 / total; tenth > lastTenth {
				lastTenth = tenth
				fmt.Fprintf(os.Stderr, "\rcampaign: %d/%d runs", done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	start := time.Now()
	results, err := runner.Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	rep := campaign.Summarize(spec, results)

	fmt.Print(rep.Table())
	fmt.Printf("\n%d runs in %v (%.1f runs/sec, workers=%d)\n",
		rep.Runs, elapsed.Round(time.Millisecond),
		float64(rep.Runs)/elapsed.Seconds(), *workers)

	if *out != "" {
		b, err := rep.JSON()
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: write %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Printf("aggregate JSON written to %s\n", *out)
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err == nil {
			err = rep.WriteCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: write %s: %v\n", *csvOut, err)
			os.Exit(1)
		}
		fmt.Printf("aggregate CSV written to %s\n", *csvOut)
	}
}
