// Command bench is the repository's benchmark: seven fixed-work, closed-loop
// workloads — one per product the repo ships — measured end to end and, on
// a second traced pass, layer by layer.
//
//	go run ./bench                         # all workloads, both passes, bench/out/result.json
//	go run ./bench -workload steady_traffic -seed 3 -seconds 10 -trace 0
//	go run ./bench compare A.json B.json   # apply each metric's direction and bound
//
// With -workload the program measures that workload alone and prints, as the
// last line of standard output, one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1. See README.md for the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"canely/internal/can"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "measure this workload alone and print the result object as the last line")
		seed    = flag.Int64("seed", 1, "offsets every workload's seeds; pinned values are checked at seed 1 only")
		seconds = flag.Float64("seconds", 0, "run batches for this long per workload (0 = each workload's fixed batch count)")
		trace   = flag.Int("trace", 0, "with -workload: 0 prints end-to-end metrics, 1 runs the traced pass and prints per-layer metrics")
		quick   = flag.Bool("quick", false, "one batch at 1/20 of the work per workload (smoke test; nothing is pinned)")
		update  = flag.Bool("update-expected", false, "rewrite "+expectedPath+" from this run instead of checking against it")
		outDir  = flag.String("out", "bench/out", "directory for result.json, layers.json, trace.json and scratch files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *update && (*quick || *seconds > 0 || *name != "") {
		fail(fmt.Errorf("-update-expected needs a full fixed-batch run: no -quick, -seconds or -workload"))
	}
	r := &run{seed: *seed, seconds: *seconds, scale: 1, outDir: *outDir, update: *update}
	if *quick {
		r.scale = 1.0 / 20
	}
	var err error
	if !*update {
		if r.expected, err = loadExpected(expectedPath); err != nil {
			fail(err)
		}
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		fail(err)
	}
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		if err := r.single(w, *trace == 1); err != nil {
			fail(err)
		}
		return
	}
	ok, err := r.all()
	if err != nil {
		fail(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// run holds the settings shared by every pass of one invocation.
type run struct {
	seed     int64
	seconds  float64
	scale    float64 // < 1: quick mode, one batch per workload
	outDir   string
	update   bool
	expected *expectedFile
}

func (r *run) opts(w *workload, setups int, seconds float64) passOpts {
	o := passOpts{seed: r.seed, scale: r.scale, seconds: seconds, batches: w.batches, setups: setups, outDir: r.outDir}
	if r.scale < 1 {
		o.seconds, o.batches = 0, 1
	}
	return o
}

// workloadResult is one workload's section of the result file.
type workloadResult struct {
	Name        string             `json:"name"`
	Unit        string             `json:"unit_of_work"`
	Op          string             `json:"operation"`
	Batches     int                `json:"batches"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	EndToEnd    map[string]metric  `json:"end_to_end"`
	Exact       pins               `json:"exact"`
	Layers      map[string]float64 `json:"per_layer,omitempty"`
	Failures    []string           `json:"failures,omitempty"`
	Incorrect   []string           `json:"incorrect,omitempty"`
}

type resultFile struct {
	Host      hostInfo          `json:"host"`
	Seed      int64             `json:"seed"`
	Quick     bool              `json:"quick,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
}

func (r *run) result(p *passResult, o passOpts) *workloadResult {
	return &workloadResult{
		Name: p.w.name, Unit: p.w.unit, Op: p.w.op, Batches: len(p.batches),
		Attempted: p.attempted, Failed: p.failed, FailedShare: float64(p.failed) / float64(max(p.attempted, 1)),
		EndToEnd: p.endToEnd(), Exact: p.obs.pins(),
		Failures: p.failures, Incorrect: gate(p, o, r.expected),
	}
}

// driverLine is the object the last line of a -workload run carries.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// single measures one workload: end to end, or (traced) layer by layer with
// the time budget split between an untraced reference and the traced pass.
func (r *run) single(w *workload, traced bool) error {
	line := driverLine{Metrics: map[string]driverValue{}}
	if !traced {
		o := r.opts(w, 3, r.seconds)
		p, err := runPass(w, o)
		if err != nil {
			return err
		}
		res := r.result(p, o)
		printEndToEnd(res)
		line.Correct, line.Attempted, line.Failed = len(res.Incorrect) == 0, res.Attempted, res.Failed
		for _, d := range endToEndDefs {
			line.Metrics[d.Name] = driverValue{res.EndToEnd[d.Name].Value, d.Unit}
		}
		return printLine(line, res)
	}

	o := r.opts(w, 1, r.seconds/2)
	ref, err := runPass(w, o)
	if err != nil {
		return err
	}
	to := o
	to.tr = newTracer()
	tp, err := runPass(w, to)
	if err != nil {
		return err
	}
	res := r.result(tp, to)
	res.Incorrect = append(res.Incorrect, gate(ref, o, r.expected)...)
	unit := measureLayers()
	res.Layers = layerMetrics(ref, tp, unit, to.tr)
	printUnitCosts(unit)
	printLayers(res, unit)
	if err := to.tr.flush(filepath.Join(r.outDir, "trace.json")); err != nil {
		return err
	}
	line.Correct = len(res.Incorrect) == 0
	line.Attempted, line.Failed = ref.attempted+tp.attempted, ref.failed+tp.failed
	for _, d := range perLayerDefs {
		line.Metrics[d.Name] = driverValue{res.Layers[d.Name], d.Unit}
	}
	return printLine(line, res)
}

func printLine(line driverLine, res *workloadResult) error {
	for _, msg := range append(res.Failures, res.Incorrect...) {
		fmt.Fprintln(os.Stderr, "bench:", res.Name+":", msg)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// all runs every workload untraced, then every workload traced, prints both
// tables, writes the result files and applies the correctness gate.
func (r *run) all() (bool, error) {
	file := resultFile{Host: newHostInfo(), Seed: r.seed, Quick: r.scale < 1}
	untraced := map[string]*passResult{}
	for i := range workloads {
		w := &workloads[i]
		o := r.opts(w, 3, r.seconds)
		p, err := runPass(w, o)
		if err != nil {
			return false, err
		}
		untraced[w.name] = p
		res := r.result(p, o)
		file.Workloads = append(file.Workloads, res)
		printEndToEnd(res)
	}

	tr := newTracer()
	unit := measureLayers()
	printUnitCosts(unit)
	for i, res := range file.Workloads {
		w := &workloads[i]
		o := r.opts(w, 1, r.seconds)
		o.tr = tr
		p, err := runPass(w, o)
		if err != nil {
			return false, err
		}
		res.Incorrect = append(res.Incorrect, gate(p, o, r.expected)...)
		res.Layers = layerMetrics(untraced[w.name], p, unit, tr)
		printLayers(res, unit)
	}
	file.Host.CalibrationAfterNs = calibrate()
	fmt.Printf("\nhost: %s %s/%s nproc=%d GOMAXPROCS=%d calibration_ns=%.0f (after: %.0f)\n",
		file.Host.GoVersion, file.Host.GOOS, file.Host.GOARCH, file.Host.NumCPU, file.Host.GOMAXPROCS,
		file.Host.CalibrationNs, file.Host.CalibrationAfterNs)
	if file.Host.noisy() {
		fmt.Println("warning: calibration before and after differ by more than 10% — noisy host, treat speeds with care")
	}

	if err := writeJSON(filepath.Join(r.outDir, "result.json"), file); err != nil {
		return false, err
	}
	layers := map[string]map[string]float64{}
	for _, res := range file.Workloads {
		layers[res.Name] = res.Layers
	}
	if err := writeJSON(filepath.Join(r.outDir, "layers.json"), layers); err != nil {
		return false, err
	}
	if err := tr.flush(filepath.Join(r.outDir, "trace.json")); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s (result.json, layers.json, trace.json: %d spans)\n", r.outDir, len(tr.spans))

	if r.update {
		return true, r.writeExpected(untraced)
	}
	ok := true
	for _, res := range file.Workloads {
		for _, msg := range res.Failures {
			fmt.Printf("FAILED  %s: %s\n", res.Name, msg)
		}
		for _, msg := range res.Incorrect {
			fmt.Printf("WRONG   %s: %s\n", res.Name, msg)
		}
		if res.Failed > 0 || len(res.Incorrect) > 0 {
			ok = false
		}
	}
	if ok {
		fmt.Println("correctness gate: pass")
	} else {
		fmt.Println("correctness gate: FAIL")
	}
	return ok, nil
}

func (r *run) writeExpected(untraced map[string]*passResult) error {
	exp := expectedFile{Seed: r.seed, Workloads: map[string]expectedWorkload{}}
	for name, p := range untraced {
		exp.Workloads[name] = expectedWorkload{Batches: len(p.batches), First: p.first, Full: p.obs.pins()}
	}
	fmt.Println("rewrote", expectedPath)
	return writeJSON(expectedPath, exp)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func printEndToEnd(res *workloadResult) {
	fmt.Printf("\n%s — %d batches; 1 unit of work = 1 %s; 1 operation = %s\n", res.Name, res.Batches, res.Unit, res.Op)
	for _, d := range endToEndDefs {
		m := res.EndToEnd[d.Name]
		name := d.Name
		if m.Alias != "" {
			name += " (" + m.Alias + ")"
		}
		fmt.Printf("  %-42s %14.4f %-5s %s is better, bound %2.0f%%   q1 %.4f q3 %.4f min %.4f max %.4f n %d\n",
			name, m.Value, d.Unit, d.Better, 100*d.Bound, m.Spread.Q1, m.Spread.Q3, m.Spread.Min, m.Spread.Max, m.Spread.N)
	}
	e := res.Exact
	fmt.Printf("  %-42s %14.4f ms    virt, exact (n %d)\n", "detect_p50_virt_ms", e.DetectP50VirtMs, e.DetectN)
	fmt.Printf("  %-42s %14.4f ms    virt, exact\n", "detect_p99_virt_ms", e.DetectP99VirtMs)
	fmt.Printf("  %-42s %14.4f %%     virt, exact\n", "protocol_bus_util_pct", e.ProtocolBusUtilPct)
	fmt.Printf("  %-42s %14.6f       %d failed of %d attempted\n", "failed_share", res.FailedShare, res.Failed, res.Attempted)
}

// printUnitCosts prints the layer metrics that come from the fixed loops
// and are therefore the same for every workload.
func printUnitCosts(unit map[string]float64) {
	fmt.Printf("\nper layer — unit costs (fixed-iteration loops, host time)\n")
	for _, d := range perLayerDefs {
		if v, ok := unit[d.Name]; ok {
			fmt.Printf("  %-32s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

// printLayers prints a workload's own layer metrics: the counts, outcomes
// and attribution of its traced pass. Zero rows (layers that did no work on
// this workload) are left out.
func printLayers(res *workloadResult, unit map[string]float64) {
	fmt.Printf("\n%s — per layer (traced pass)\n", res.Name)
	for _, d := range perLayerDefs {
		if _, isUnit := unit[d.Name]; !isUnit && res.Layers[d.Name] != 0 {
			fmt.Printf("  %-32s %16.4f %s\n", d.Name, res.Layers[d.Name], d.Unit)
		}
	}
}

// layerMetrics assembles a workload's per-layer table: the unit costs, the
// exact counts of the traced pass, the protocol outcomes and what derives
// from them, and the attribution of the traced wall time.
func layerMetrics(ref, tp *passResult, unit map[string]float64, tr *tracer) map[string]float64 {
	out := map[string]float64{}
	counts := tp.obs.counts
	for _, d := range perLayerDefs {
		if v, ok := unit[d.Name]; ok {
			out[d.Name] = v
		} else {
			out[d.Name] = counts[d.Name]
		}
	}
	w := tp.w
	wallNs := tp.wall() * 1e9
	frames := counts[w.medium+".frames_ok"] + counts[w.medium+".frames_error"] + counts[w.medium+".frames_inconsistent"]
	if frames == 0 && w.medium != "" { // campaigns: the medium is out of reach, the hook observer hears every frame
		frames = counts["stack.observer_frames"]
		out[w.medium+".frames_ok"] = frames
	}
	if w.medium != "datagram" { // the injector sits in the two buses only
		out["fault.corrupted"] = counts[w.medium+".frames_error"]
		out["fault.inconsistent"] = counts[w.medium+".frames_inconsistent"]
	}
	if sent := counts["datagram.frames_ok"]; sent > 0 {
		out["datagram.drop_share"] = counts["datagram.dropped"] / sent
	}
	out["detect_p50_virt_ms"], out["detect_p99_virt_ms"] = tp.obs.detectQuantiles()
	out["protocol_bus_util_pct"] = tp.obs.protocolUtilPct()

	if events := counts["sim.events_fired"]; events > 0 {
		out["sim.ns_per_event"] = wallNs / events
	}
	if runs := counts["explore.runs"]; runs > 0 {
		out["explore.ns_per_step"] = wallNs / counts["explore.steps"]
		out["explore.prune_share"] = counts["explore.pruned"] / runs
		out["explore.sleep_share"] = counts["explore.slept"] / runs
		out["explore.resume_share"] = counts["explore.resumed"] / runs
	}
	if counts["rt.broker_frames_delivered"] > 0 {
		nominal := can.TxTime(can.Frame{DLC: 4}, can.Rate1Mbps)
		out["rt.pace_floor_us"] = ref.endToEnd()["latency_p50_us"].Value - float64(nominal)/1e3
	}
	out["trace_overhead_pct"] = 100 * (ref.endToEnd()["work_per_s"].Value/tp.endToEnd()["work_per_s"].Value - 1)
	attribute(out, tp, frames, unit, tr)
	return out
}

// attribute estimates where the traced wall time went and stores the
// share.* metrics in out: count from the traced pass × unit cost from the
// loops, over the traced wall time. Overlaps are taken out where one unit
// cost contains another (a medium's transmit→deliver fires scheduler events;
// the stack's OnFrame contains the core step).
func attribute(out map[string]float64, tp *passResult, frames float64, unit map[string]float64, tr *tracer) {
	w, counts := tp.w, tp.obs.counts
	wallNs := tp.wall() * 1e9
	events := counts["sim.events_fired"]
	share := func(ns float64) float64 {
		if ns < 0 || wallNs == 0 {
			return 0
		}
		return ns / wallNs
	}
	eventNs := unit["sim.schedule_ns"] + unit["sim.fire_ns"]
	var mediumNs, coreNs, stackNs, setupNs float64
	if w.medium != "" {
		mediumNs = frames * unit[w.medium+".tx_deliver_ns"]
		events -= frames * unit[w.medium+".events_per_frame"] // already inside the medium's cost
	}
	switch {
	case counts["explore.steps"] > 0:
		coreNs = counts["explore.steps"] * unit["core.node_step_ns.els"]
		setupNs = float64(tr.totals(w.name)["explore.New"].TotalNs)
	case w.medium == "datagram":
		ticks := tp.work() / 0.020 * gossipNodes // one protocol period per node per 20 virt ms
		coreNs = frames*unit["gossip.step_ns.ping"] + ticks*unit["gossip.step_ns.tick"]
	default:
		rtr := counts["stack.rtr_indications"]
		coreNs = rtr*unit["core.node_step_ns.els"] + counts["stack.data_nty"]*unit["core.node_step_ns.data_nty"]
		stackNs = rtr*unit["stack.on_frame_ns.els"] + (counts["stack.indications"]-rtr)*unit["stack.on_frame_ns.data"] - coreNs
	}
	for _, sub := range []string{"fast", "bit"} { // campaigns build a network per run
		setupNs += counts["canely.networks."+sub] * (unit["canely.new_network_ns."+sub] + unit["canely.bootstrap_ns"])
	}
	out["share.sim"] = share(events * eventNs)
	out["share.medium"] = share(mediumNs)
	out["share.stack"] = share(stackNs)
	out["share.core"] = share(coreNs)
	out["share.setup"] = share(setupNs)
	out["share.unattributed"] = 1 - out["share.sim"] - out["share.medium"] - out["share.stack"] - out["share.core"] - out["share.setup"]
}
