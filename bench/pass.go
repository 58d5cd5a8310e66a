package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"canely"
)

// instance is one constructed workload: batch runs one fixed-work batch
// (b = -1 is the untimed warm-up), close releases what start acquired.
type instance interface {
	batch(b int, m *meter)
	close()
}

// workload is one of the seven fixed-work, closed-loop loads.
type workload struct {
	name string
	// unit is what one unit of work is; work_per_s and allocs_per_work are
	// per this unit, and alias gives the product's own name for each.
	unit  string
	alias map[string]string
	// op is what one latency sample times.
	op string
	// batches is the batch count of a run that is not time-bounded.
	batches int
	// medium is the layer whose transmit→deliver cost the attribution uses.
	medium string
	// procs is the GOMAXPROCS the workload runs under. The simulators and the
	// explorer are single-threaded, so they get one: the collector then runs
	// on the measured core instead of borrowing a second one whose
	// availability varies from run to run (on the reference host that alone
	// halved the run-to-run spread). The broker is concurrent and gets two.
	procs int
	why   string
	start func(*env) (instance, error)
}

var workloads = []workload{
	{
		name: "campaign_fast", unit: "campaign run", op: "one campaign run (extractor call)", batches: 16, medium: "fastbus", procs: 1,
		alias: map[string]string{"work_per_s": "runs_per_s", "allocs_per_work": "allocs_per_run"},
		why:   "fresh 8-node network per run on the fast substrate: construction, scheduler pooling and allocation dominate, the steady hot path does little",
		start: startCampaign(canely.SubstrateFast, 750),
	},
	{
		name: "campaign_bit", unit: "campaign run", op: "one campaign run (extractor call)", batches: 16, medium: "bus", procs: 1,
		alias: map[string]string{"work_per_s": "runs_per_s", "allocs_per_work": "allocs_per_run"},
		why:   "same runs on the bit-accurate substrate: internal/bus does the work and fastbus none, and the shared seeds check substrate equivalence",
		start: startCampaign(canely.SubstrateBitAccurate, 250),
	},
	{
		name: "steady_traffic", unit: "virt s", op: "one 100-virt-ms Network.Run slice", batches: 20, medium: "fastbus", procs: 1,
		alias: map[string]string{"work_per_s": "virt_s_per_s", "allocs_per_work": "allocs_per_virt_s"},
		why:   "one warm 32-node network with cyclic data traffic and no faults: pure scheduler, fastbus, stack dispatch and core steps; a set-up or pooling gain must not move it",
		start: startSteady,
	},
	{
		name: "churn_faults", unit: "virt s", op: "one 100-virt-ms Network.Run slice", batches: 20, medium: "fastbus", procs: 1,
		alias: map[string]string{"work_per_s": "virt_s_per_s", "allocs_per_work": "allocs_per_virt_s"},
		why:   "the same layers the other way round: injected faults, leave/join every 200 virt ms and four crashes, so RHA, FDA diffusion, retransmission and view changes do the work",
		start: startChurn,
	},
	{
		name: "explore_exhaust", unit: "schedule run", op: "one exhaustion of the gossip scenario", batches: 12, medium: "", procs: 1,
		alias: map[string]string{"work_per_s": "schedules_per_s", "allocs_per_work": "allocs_per_schedule"},
		why:   "the explorer exhausts the CANELy and the gossip scenario: core steps, fingerprints, clone/restore and no scheduler, medium or stack; both scenario forks run",
		start: startExplore,
	},
	{
		name: "gossip_lossy", unit: "virt s", op: "one 100-virt-ms Network.RunFor slice", batches: 30, medium: "datagram", procs: 1,
		alias: map[string]string{"work_per_s": "virt_s_per_s", "allocs_per_work": "allocs_per_virt_s"},
		why:   "48 SWIM cores over the lossy datagram medium with three crashes: the only workload where datagram and gossip do the work and bus, fastbus and core none",
		start: startGossip,
	},
	{
		name: "broker_live", unit: "frame", op: "one frame: request written to own indication read", batches: 16, medium: "fastbus", procs: 2,
		alias: map[string]string{"work_per_s": "pipelined_frames_per_s", "allocs_per_work": "allocs_per_frame",
			"latency_p50_us": "forward_p50_us", "latency_p99_us": "forward_p99_us"},
		why:   "the only wall-clock product: wire codec, rt.Loop pacing, broker shard writers and socket I/O behind one node and one tap connection",
		start: startBroker,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// passOpts says how one pass over a workload runs.
type passOpts struct {
	seed    int64
	scale   float64
	seconds float64 // > 0: run batches until this much wall time has passed
	batches int     // otherwise: exactly this many
	setups  int     // how many times set-up is repeated (the last one is kept)
	tr      *tracer // non-nil on the traced pass
	outDir  string
}

// minBatches is the fewest batches a time-bounded pass runs.
const minBatches = 3

// batchSample is one timed batch.
type batchSample struct {
	wall    float64 // s
	work    float64
	mallocs float64
	p50     float64 // op latency quantiles within the batch, µs
	p99     float64
}

// passResult is everything one pass measured.
type passResult struct {
	w       *workload
	setup   []float64 // s, one per set-up
	batches []batchSample

	attempted int
	failed    int
	failures  []string
	incorrect []string

	obs   *observed
	first pins // the pinned observations as they stood after batch 0
}

// seedBase spreads -seed values far enough apart that no two share inputs.
func seedBase(seed int64) int64 { return seed * 1_000_000 }

func runPass(w *workload, o passOpts) (*passResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	res := &passResult{w: w, obs: newObserved()}
	e := &env{seed: seedBase(o.seed), scale: o.scale, outDir: o.outDir}
	if o.tr != nil {
		e.tr = o.tr
		e.tr.workload = w.name
		e.hooks = &hookCounts{}
	}

	// Set-up: construct and run the untimed warm-up batch, o.setups times.
	var inst instance
	for i := 0; i < o.setups; i++ {
		if inst != nil {
			inst.close()
		}
		e.tr.setBatch(-1)
		t := time.Now()
		sp := e.tr.begin("setup")
		var err error
		if inst, err = w.start(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		warm := &meter{tr: e.tr, obs: newObserved()}
		inst.batch(-1, warm)
		e.tr.end(sp)
		res.setup = append(res.setup, time.Since(t).Seconds())
		res.incorrect = append(res.incorrect, warm.incorrect...)
		if e.hooks != nil {
			*e.hooks = hookCounts{observer: e.hooks.observer}
		}
	}
	defer inst.close()

	start := time.Now()
	for b := 0; ; b++ {
		if o.seconds > 0 {
			if b >= minBatches && time.Since(start).Seconds() >= o.seconds {
				break
			}
		} else if b >= o.batches {
			break
		}
		e.tr.setBatch(b)
		m := &meter{tr: e.tr, obs: res.obs}
		inst.batch(b, m)
		if m.work > 0 {
			sort.Float64s(m.ops)
			res.batches = append(res.batches, batchSample{
				wall: m.wall.Seconds(), work: m.work, mallocs: float64(m.mallocs),
				p50: quantile(m.ops, 0.5), p99: quantile(m.ops, 0.99),
			})
		}
		res.attempted += m.attempted
		res.failed += m.failed
		if len(res.failures) < 5 {
			res.failures = append(res.failures, m.failures...)
		}
		if len(res.incorrect) < 5 {
			res.incorrect = append(res.incorrect, m.incorrect...)
		}
		if b == 0 {
			res.first = res.obs.pins()
		}
	}
	if e.hooks != nil {
		e.hooks.into(res.obs)
	}
	if len(res.batches) == 0 {
		return nil, fmt.Errorf("%s: no batch completed: %s", w.name, strings.Join(append(res.failures, res.incorrect...), "; "))
	}
	return res, nil
}

// perBatch maps the batches through f.
func (r *passResult) perBatch(f func(batchSample) float64) []float64 {
	out := make([]float64, len(r.batches))
	for i, b := range r.batches {
		out[i] = f(b)
	}
	return out
}

// wall and work are the totals over the timed batches.
func (r *passResult) wall() (s float64) {
	for _, b := range r.batches {
		s += b.wall
	}
	return s
}

func (r *passResult) work() (w float64) {
	for _, b := range r.batches {
		w += b.work
	}
	return w
}

// metric is one reported number with the spread of the samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Alias is the product's own name for the metric on this workload.
	Alias  string   `json:"alias,omitempty"`
	Spread *summary `json:"spread,omitempty"`
}

// endToEnd computes the five end-to-end metrics of a pass, each the median
// over the batches of the batch's own figure: work over wall time, heap
// objects over work, and the 50th and 99th percentile of the batch's
// operation latencies. The median over batches is what keeps a burst of host
// interference, which lands in a few batches, out of the result.
func (r *passResult) endToEnd() map[string]metric {
	speed := summarize(r.perBatch(func(b batchSample) float64 { return b.work / b.wall }))
	allocs := summarize(r.perBatch(func(b batchSample) float64 { return b.mallocs / b.work }))
	setup := summarize(r.setup)
	p50 := summarize(r.perBatch(func(b batchSample) float64 { return b.p50 }))
	p99 := summarize(r.perBatch(func(b batchSample) float64 { return b.p99 }))
	out := map[string]metric{
		"setup_s":         {Value: setup.Median, Spread: &setup},
		"work_per_s":      {Value: speed.Median, Spread: &speed},
		"allocs_per_work": {Value: allocs.Median, Spread: &allocs},
		"latency_p50_us":  {Value: p50.Median, Spread: &p50},
		"latency_p99_us":  {Value: p99.Median, Spread: &p99},
	}
	for _, d := range endToEndDefs {
		m := out[d.Name]
		m.Unit = d.Unit
		m.Alias = r.w.alias[d.Name]
		out[d.Name] = m
	}
	return out
}
