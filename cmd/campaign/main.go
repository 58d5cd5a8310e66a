// Command campaign runs a parallel Monte-Carlo simulation campaign: a
// parameter grid over the CANELy configuration × a seed sweep, fanned out
// over a worker pool (internal/campaign), with the failure-detector QoS of
// every run (detection latency, mistaken suspicions, agreement violations)
// reduced to statistical aggregates. Aggregates are deterministic: the same
// grid and seeds produce byte-identical JSON at any -workers value.
//
// Examples:
//
//	campaign -grid "tb=5ms,10ms,20ms" -seeds 200 -o report.json
//	campaign -grid "tb=10ms;pcorrupt=0,0.01" -seeds 1000 -csv report.csv
//	campaign -bench BENCH_campaign.json
package main

import (
	"context"
	"encoding/json"
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

// benchReport is the BENCH_campaign.json artifact: the campaign engine's
// throughput ladder on the default E10 grid, measured once per substrate —
// the perf baseline future changes regress against. FastVsBitSpeedup is the
// single-worker runs/sec ratio, the honest per-core comparison.
type benchReport struct {
	Benchmark     string `json:"benchmark"`
	Nodes         int    `json:"nodes"`
	Grid          string `json:"grid"`
	RunsPerLadder int    `json:"runs_per_ladder"`
	// Host pins the measurement conditions next to the numbers: on a
	// 1-core host the worker ladder can only show contention overhead, so a
	// flat speedup column there says nothing about the engine's scaling.
	Host             hostInfo          `json:"host"`
	Substrates       []substrateSeries `json:"substrates"`
	FastVsBitSpeedup float64           `json:"fast_vs_bit_speedup"`
	P99DetectionMs   float64           `json:"p99_detection_ms"`
	// AllocsPerRun/BytesPerRun is the heap churn of one complete campaign
	// run (fast substrate, workers=1): the PR-over-PR allocation trajectory.
	AllocsPerRun     float64           `json:"allocs_per_run"`
	BytesPerRun      float64           `json:"bytes_per_run"`
	SteadyState      *steadyStateStats `json:"steady_state"`
	Federation       *federationStats  `json:"federation"`
	GossipComparison *gossipStats      `json:"gossip_comparison"`
}

// gossipStats is the CANELy-vs-SWIM scaling section of the bench
// artifact: detection latency, false-suspicion rate and per-node
// bandwidth at cluster sizes far beyond the 64-identity simulation cap,
// from the seeded model campaign (internal/experiments gossip
// comparison).
type gossipStats struct {
	Seeds  int           `json:"seeds"`
	Points []gossipPoint `json:"points"`
}

type gossipPoint struct {
	Nodes int `json:"nodes"`

	CANELyDetectMs     float64 `json:"canely_detect_ms"`
	CANELyDetectCI95Ms float64 `json:"canely_detect_ci95_ms"`
	CANELyFPNodeHour   float64 `json:"canely_fp_per_node_hour"`
	CANELyFPCI95       float64 `json:"canely_fp_ci95"`
	CANELyBWBps        float64 `json:"canely_bw_bps"`
	CANELyBWCI95Bps    float64 `json:"canely_bw_ci95_bps"`

	GossipDetectMs     float64 `json:"gossip_detect_ms"`
	GossipDetectCI95Ms float64 `json:"gossip_detect_ci95_ms"`
	GossipFPNodeHour   float64 `json:"gossip_fp_per_node_hour"`
	GossipFPCI95       float64 `json:"gossip_fp_ci95"`
	GossipBWBps        float64 `json:"gossip_bw_bps"`
	GossipBWCI95Bps    float64 `json:"gossip_bw_ci95_bps"`
}

// measureGossip runs the comparison sweep for the bench artifact.
func measureGossip() *gossipStats {
	const seeds = 50
	points := experiments.MeasureGossipComparison([]int{10, 100, 1000, 10000}, seeds, 1)
	gs := &gossipStats{Seeds: seeds}
	for _, p := range points {
		gs.Points = append(gs.Points, gossipPoint{
			Nodes:              p.Nodes,
			CANELyDetectMs:     p.CANELyDetectMs,
			CANELyDetectCI95Ms: p.CANELyDetectCI95Ms,
			CANELyFPNodeHour:   p.CANELyFPPerNodeHour,
			CANELyFPCI95:       p.CANELyFPCI95,
			CANELyBWBps:        p.CANELyBWBitsPerSec,
			CANELyBWCI95Bps:    p.CANELyBWCI95,
			GossipDetectMs:     p.GossipDetectMs,
			GossipDetectCI95Ms: p.GossipDetectCI95Ms,
			GossipFPNodeHour:   p.GossipFPPerNodeHour,
			GossipFPCI95:       p.GossipFPCI95,
			GossipBWBps:        p.GossipBWBitsPerSec,
			GossipBWCI95Bps:    p.GossipBWCI95,
		})
	}
	return gs
}

// federationStats is the multi-segment scaling section of the bench
// artifact: cold-boot site-view convergence and segment-crash detection
// latency as the segment count grows (internal/experiments federation
// campaign, fast substrate).
type federationStats struct {
	NodesPerSegment int               `json:"nodes_per_segment"`
	Seeds           int               `json:"seeds"`
	Points          []federationPoint `json:"points"`
}

type federationPoint struct {
	Segments       int     `json:"segments"`
	ConvergeMs     float64 `json:"converge_ms"`
	ConvergeCI95Ms float64 `json:"converge_ci95_ms"`
	DetectMs       float64 `json:"detect_ms"`
	DetectCI95Ms   float64 `json:"detect_ci95_ms"`
}

// measureFederation runs the federation scaling sweep for the bench
// artifact.
func measureFederation() *federationStats {
	const nodesPer, seeds = 4, 20
	points := experiments.MeasureFederationSweep(
		canely.SubstrateFast, []int{4, 8, 16, 32}, nodesPer, seeds, 1)
	fs := &federationStats{NodesPerSegment: nodesPer, Seeds: seeds}
	for _, p := range points {
		fs.Points = append(fs.Points, federationPoint{
			Segments:       p.Segments,
			ConvergeMs:     p.ConvergeMs,
			ConvergeCI95Ms: p.ConvergeCI95Ms,
			DetectMs:       p.DetectMs,
			DetectCI95Ms:   p.DetectCI95Ms,
		})
	}
	return fs
}

// hostInfo records the machine the ladder was measured on, so numbers from
// different hosts are never compared as if they were one series.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentHost() hostInfo {
	return hostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

type substrateSeries struct {
	Substrate string       `json:"substrate"`
	Workers   []benchPoint `json:"workers"`
}

type benchPoint struct {
	Workers    int     `json:"workers"`
	RunsPerSec float64 `json:"runs_per_sec"`
	Speedup    float64 `json:"speedup_vs_1"`
	// AllocsPerRun is the whole-process heap churn per campaign run at this
	// worker count: if per-worker state is shared or false-shared, allocator
	// contention shows up here as data instead of ladder guesswork.
	AllocsPerRun float64 `json:"allocs_per_run"`
}

// steadyStateStats mirrors BenchmarkSteadyStateStep: one op advances an
// 8-node bootstrapped fast-substrate network by one second of virtual time
// with no membership churn.
type steadyStateStats struct {
	Benchmark   string  `json:"benchmark"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// measureSteadyState is the in-CLI twin of BenchmarkSteadyStateStep, so one
// `campaign -bench` invocation regenerates the whole artifact.
func measureSteadyState() *steadyStateStats {
	cfg := canely.DefaultConfig()
	cfg.Substrate = canely.SubstrateFast
	net := canely.NewNetwork(cfg, 8)
	net.BootstrapAll()
	net.Run(time.Second) // warm up buffers, slabs and queues
	const ops = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		net.Run(time.Second)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return &steadyStateStats{
		Benchmark:   "steady-state-step (8 nodes, 1s virtual time per op)",
		NsPerOp:     float64(elapsed.Nanoseconds()) / ops,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / ops,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / ops,
	}
}

// measureThroughput times the crash-QoS campaign over the given grid at each
// worker count, once per substrate. Each (substrate, workers) cell is timed
// over the full grid × seeds run, best of reps to shed scheduler noise.
func measureThroughput(grid string, nodes, seeds int) benchReport {
	rep := benchReport{Benchmark: "campaign-throughput", Nodes: nodes, Grid: grid}
	rep.Host = currentHost()
	ladder := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	const reps = 3
	for _, sub := range []canely.Substrate{canely.SubstrateBitAccurate, canely.SubstrateFast} {
		series := substrateSeries{Substrate: sub.String()}
		seen := map[int]bool{}
		var base float64
		for _, w := range ladder {
			if seen[w] {
				continue
			}
			seen[w] = true
			var best, cellAllocs float64
			for attempt := 0; attempt < reps; attempt++ {
				axes, err := parseGrid(grid)
				if err != nil {
					panic(err)
				}
				cfg := canely.DefaultConfig()
				cfg.Substrate = sub
				spec := experiments.CrashQoSSpec(cfg, nodes, axes,
					campaign.SeedRange{Base: 1, N: seeds})
				runner := campaign.Runner{Workers: w}
				measureAllocs := attempt == 0
				var before runtime.MemStats
				if measureAllocs {
					runtime.GC()
					runtime.ReadMemStats(&before)
				}
				start := time.Now()
				results, err := runner.Run(context.Background(), spec)
				if err != nil {
					panic(err)
				}
				if rps := float64(len(results)) / time.Since(start).Seconds(); rps > best {
					best = rps
				}
				if measureAllocs {
					var after runtime.MemStats
					runtime.ReadMemStats(&after)
					cellAllocs = float64(after.Mallocs-before.Mallocs) / float64(len(results))
					if sub == canely.SubstrateFast && w == 1 {
						rep.AllocsPerRun = cellAllocs
						rep.BytesPerRun = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(results))
					}
				}
				rep.RunsPerLadder = len(results)
				if rep.P99DetectionMs == 0 {
					rep.P99DetectionMs = campaign.MergeMetric(results, "detection_ms").Quantile(0.99)
				}
			}
			if base == 0 {
				base = best
			}
			series.Workers = append(series.Workers, benchPoint{
				Workers: w, RunsPerSec: best, Speedup: best / base,
				AllocsPerRun: cellAllocs,
			})
		}
		rep.Substrates = append(rep.Substrates, series)
	}
	rep.SteadyState = measureSteadyState()
	rep.Federation = measureFederation()
	rep.GossipComparison = measureGossip()
	if len(rep.Substrates) == 2 &&
		len(rep.Substrates[0].Workers) > 0 && len(rep.Substrates[1].Workers) > 0 {
		bit := rep.Substrates[0].Workers[0].RunsPerSec
		fast := rep.Substrates[1].Workers[0].RunsPerSec
		if bit > 0 {
			rep.FastVsBitSpeedup = fast / bit
		}
	}
	return rep
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		grid      = flag.String("grid", "tb=5ms,10ms,20ms,40ms", "parameter grid: \"key=v1,v2;key2=...\" over tb, tm, ttd, trha, tjoinwait, pcorrupt, pinconsistent, j, k")
		nodes     = flag.Int("nodes", 8, "network size per run")
		seeds     = flag.Int("seeds", 50, "seeded trials per grid point")
		seed      = flag.Int64("seed", 1, "first seed of the sweep")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		substrate = flag.String("substrate", "fast", "medium substrate: fast (frame-level) or bit (bit-accurate); both produce identical campaign results")
		out       = flag.String("o", "", "write the aggregate report as JSON to this path")
		csvOut    = flag.String("csv", "", "write the aggregate report as CSV to this path")
		bench     = flag.String("bench", "", "measure per-substrate engine throughput at 1/2/4/max workers over the grid and write BENCH JSON to this path")
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
	spec := experiments.CrashQoSSpec(cfg, *nodes, axes,
		campaign.SeedRange{Base: *seed, N: *seeds})
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
	if *bench != "" {
		fmt.Printf("measuring engine throughput per substrate at 1/2/4/%d workers...\n", runtime.GOMAXPROCS(0))
		br := measureThroughput(*grid, *nodes, 16)
		if err := writeJSON(*bench, br); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: write %s: %v\n", *bench, err)
			os.Exit(1)
		}
		for _, s := range br.Substrates {
			for _, p := range s.Workers {
				fmt.Printf("  substrate=%-5s workers=%-3d %8.1f runs/sec  %.2fx\n",
					s.Substrate, p.Workers, p.RunsPerSec, p.Speedup)
			}
		}
		fmt.Printf("fast vs bit speedup (workers=1): %.2fx\n", br.FastVsBitSpeedup)
		for _, p := range br.Federation.Points {
			fmt.Printf("  federation segments=%-3d converge %6.2fms ±%.3f  detect %6.2fms ±%.3f\n",
				p.Segments, p.ConvergeMs, p.ConvergeCI95Ms, p.DetectMs, p.DetectCI95Ms)
		}
		for _, p := range br.GossipComparison.Points {
			fmt.Printf("  gossip-cmp nodes=%-6d canely %8.1fms ±%5.1f fp=%.2f/h bw=%5.0fkbps | gossip %6.1fms ±%5.1f fp=%.2f/h bw=%5.0fkbps\n",
				p.Nodes,
				p.CANELyDetectMs, p.CANELyDetectCI95Ms, p.CANELyFPNodeHour, p.CANELyBWBps/1000,
				p.GossipDetectMs, p.GossipDetectCI95Ms, p.GossipFPNodeHour, p.GossipBWBps/1000)
		}
		fmt.Printf("bench JSON written to %s\n", *bench)
	}
}
