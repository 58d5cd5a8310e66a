package campaign

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"canely"
	"canely/internal/sim"
)

// syntheticSpec is a cheap fully deterministic campaign: metrics derived
// from the run seed through the repository RNG. 2 axes × 500 seeds = 1000
// runs.
func syntheticSpec() *Spec {
	return &Spec{
		Name: "synthetic",
		Base: canely.DefaultConfig(),
		Axes: []Axis{{Name: "mode", Values: []AxisValue{
			{Label: "a", Value: 1.0},
			{Label: "b", Value: 2.0},
		}}},
		Seeds: SeedRange{Base: 7, N: 500},
		Run: func(p Params) (map[string]float64, error) {
			rng := sim.NewRNG(p.Seed)
			scale := p.Values[0].(float64)
			return map[string]float64{
				"x": scale * rng.Float64(),
				"y": float64(p.Trial%13) + rng.Float64(),
			}, nil
		},
	}
}

// TestAggregateJSONIdenticalAcrossWorkerCounts is the determinism
// acceptance criterion: a 1000-run campaign produces byte-identical
// aggregate JSON no matter how many workers executed it.
func TestAggregateJSONIdenticalAcrossWorkerCounts(t *testing.T) {
	spec := syntheticSpec()
	if spec.TotalRuns() < 1000 {
		t.Fatalf("campaign too small for the acceptance bar: %d runs", spec.TotalRuns())
	}
	var ref []byte
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		runner := Runner{Workers: workers}
		runs, err := runner.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := Summarize(spec, runs).JSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("aggregate JSON differs between 1 and %d workers", workers)
		}
	}
}

// TestRealSimulationDeterminism runs genuine CANELy crash simulations
// through the pool and checks worker-count independence end to end.
func TestRealSimulationDeterminism(t *testing.T) {
	spec := &Spec{
		Name: "real-crash",
		Base: canely.DefaultConfig(),
		Axes: []Axis{DurationAxis("tb",
			func(c *canely.Config, v time.Duration) { c.Tb = v },
			5*time.Millisecond, 10*time.Millisecond)},
		Seeds: SeedRange{Base: 1, N: 3},
		Run: func(p Params) (map[string]float64, error) {
			net := canely.NewNetwork(p.Config, 4)
			net.BootstrapAll()
			net.Run(30 * time.Millisecond)
			victim := canely.NodeID(p.Trial % 3)
			var detected time.Duration
			net.Node(3).OnChange(func(ch canely.Change) {
				if detected == 0 && ch.Failed.Contains(victim) {
					detected = net.Now()
				}
			})
			crashAt := net.Now()
			net.Node(victim).Crash()
			net.Run(p.Config.DetectionLatencyBound() + p.Config.Tm)
			if detected == 0 {
				return nil, fmt.Errorf("crash of %v not detected", victim)
			}
			return map[string]float64{"detection_ms": float64(detected-crashAt) / 1e6}, nil
		},
	}
	var ref []byte
	for _, workers := range []int{1, 3} {
		runner := Runner{Workers: workers}
		runs, err := runner.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Summarize(spec, runs).JSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !bytes.Equal(ref, got) {
			t.Fatalf("real-simulation JSON differs across worker counts:\n%s\nvs\n%s", ref, got)
		}
	}
	rep := Summarize(spec, mustRun(t, spec, 2))
	if rep.Failed != 0 {
		t.Fatalf("unexpected failed trials: %+v", rep)
	}
	for _, p := range rep.Points {
		if len(p.Metrics) != 1 || p.Metrics[0].Name != "detection_ms" {
			t.Fatalf("metrics = %+v", p.Metrics)
		}
		if a := p.Metrics[0].Agg; a.Count != 3 || a.Mean <= 0 || a.Max < a.P99 || a.P99 < a.P50 {
			t.Fatalf("implausible aggregate %+v", a)
		}
	}
}

func mustRun(t *testing.T, spec *Spec, workers int) []RunResult {
	t.Helper()
	runner := Runner{Workers: workers}
	runs, err := runner.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// TestPanicIsolation: a panicking run becomes a failed trial, the campaign
// and its sibling runs complete.
func TestPanicIsolation(t *testing.T) {
	spec := syntheticSpec()
	inner := spec.Run
	spec.Run = func(p Params) (map[string]float64, error) {
		if p.Index == 137 {
			panic("boom")
		}
		if p.Index == 138 {
			return nil, fmt.Errorf("soft failure")
		}
		return inner(p)
	}
	runs := mustRun(t, spec, 8)
	if !runs[137].Failed() || !strings.Contains(runs[137].Err, "panic: boom") {
		t.Fatalf("run 137 = %+v", runs[137])
	}
	if !runs[138].Failed() || runs[138].Err != "soft failure" {
		t.Fatalf("run 138 = %+v", runs[138])
	}
	rep := Summarize(spec, runs)
	if rep.Failed != 2 {
		t.Fatalf("report failed = %d, want 2", rep.Failed)
	}
	ok := 0
	for _, r := range runs {
		if !r.Failed() {
			ok++
		}
	}
	if ok != len(runs)-2 {
		t.Fatalf("%d successful runs, want %d", ok, len(runs)-2)
	}
	// The point that hosts the failures records the distinct messages.
	pt := rep.Points[runs[137].Params.Point]
	if pt.Failed != 2 || len(pt.Errors) != 2 {
		t.Fatalf("point report = %+v", pt)
	}
}

// TestCancellation: a cancelled context stops the campaign with its error.
func TestCancellation(t *testing.T) {
	spec := syntheticSpec()
	ctx, cancel := context.WithCancel(context.Background())
	started := false
	inner := spec.Run
	spec.Run = func(p Params) (map[string]float64, error) {
		if !started {
			started = true
			cancel()
		}
		return inner(p)
	}
	runner := Runner{Workers: 1}
	if _, err := runner.Run(ctx, spec); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProgressCallback(t *testing.T) {
	spec := syntheticSpec()
	spec.Seeds.N = 25
	var calls int
	var last int
	runner := Runner{Workers: 4, Progress: func(done, total int) {
		calls++
		last = done
		if total != spec.TotalRuns() {
			t.Errorf("total = %d, want %d", total, spec.TotalRuns())
		}
	}}
	if _, err := runner.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if calls != spec.TotalRuns() || last != spec.TotalRuns() {
		t.Fatalf("calls = %d, last = %d, want %d", calls, last, spec.TotalRuns())
	}
}

func TestSpecValidation(t *testing.T) {
	runner := Runner{}
	if _, err := runner.Run(context.Background(), &Spec{Name: "norun"}); err == nil {
		t.Fatal("spec without extractor accepted")
	}
	bad := syntheticSpec()
	bad.Axes = append(bad.Axes, Axis{Name: "empty"})
	if _, err := runner.Run(context.Background(), bad); err == nil {
		t.Fatal("empty axis accepted")
	}
}

// TestGridEnumeration pins the odometer order: last axis fastest,
// point-major run indexing, per-run config isolation.
func TestGridEnumeration(t *testing.T) {
	spec := &Spec{
		Name: "grid",
		Base: canely.DefaultConfig(),
		Axes: []Axis{
			DurationAxis("tb", func(c *canely.Config, v time.Duration) { c.Tb = v },
				5*time.Millisecond, 10*time.Millisecond),
			IntAxis("c", 0, 1, 20),
		},
		Seeds: SeedRange{Base: 100, N: 2},
		Run:   func(p Params) (map[string]float64, error) { return nil, nil },
	}
	if spec.Points() != 6 || spec.TotalRuns() != 12 {
		t.Fatalf("points=%d runs=%d", spec.Points(), spec.TotalRuns())
	}
	p := spec.params(0)
	if p.Point != 0 || p.Trial != 0 || p.Seed != 100 || p.Config.Seed != 100 {
		t.Fatalf("params(0) = %+v", p)
	}
	if p.Labels[0].String() != "tb=5ms" || p.Labels[1].String() != "c=0" {
		t.Fatalf("labels(0) = %v", p.Labels)
	}
	// Run 3 = point 1 (tb=5ms, c=1), trial 1.
	p = spec.params(3)
	if p.Point != 1 || p.Trial != 1 || p.Seed != 101 {
		t.Fatalf("params(3) = %+v", p)
	}
	if p.Labels[1].Value != "1" || p.Values[1].(int) != 1 {
		t.Fatalf("axis payload = %+v", p)
	}
	// Last run: tb=10ms, c=20.
	p = spec.params(11)
	if p.Config.Tb != 10*time.Millisecond || p.Values[1].(int) != 20 {
		t.Fatalf("params(11) = %+v", p)
	}
	if spec.Base.Tb != canely.DefaultConfig().Tb {
		t.Fatal("axis Apply leaked into the base config")
	}
}

func TestSampleMergeMatchesSequential(t *testing.T) {
	var seq, a, b Sample
	vals := []float64{5, 1, 4, 4, 8, 2, 0.5}
	for i, v := range vals {
		seq.Add(v)
		if i < 3 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	if a.Summary() != seq.Summary() {
		t.Fatalf("merged %+v != sequential %+v", a.Summary(), seq.Summary())
	}
	if a.N() != len(vals) || a.Min() != 0.5 || a.Max() != 8 {
		t.Fatalf("merged sample %+v", a.Summary())
	}
}

func TestSampleQuantiles(t *testing.T) {
	var empty Sample
	if empty.Quantile(0.5) != 0 || empty.Summary() != (Agg{}) {
		t.Fatal("empty sample must summarize to zeros")
	}
	var one Sample
	one.Add(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if one.Quantile(q) != 42 {
			t.Fatalf("one-sample quantile(%v) = %v", q, one.Quantile(q))
		}
	}
	if one.CI95() != 0 {
		t.Fatal("one-sample CI must be 0")
	}
	var s Sample
	for _, v := range []float64{10, 20, 30, 40} {
		s.Add(v)
	}
	if got := s.Quantile(0.5); got != 25 {
		t.Fatalf("p50 = %v, want 25 (interpolated)", got)
	}
	if got := s.Quantile(0.25); got != 17.5 {
		t.Fatalf("p25 = %v, want 17.5", got)
	}
	if s.Quantile(0) != 10 || s.Quantile(1) != 40 {
		t.Fatal("extreme quantiles must hit min/max")
	}
	if s.Quantile(-0.5) != 10 || s.Quantile(1.5) != 40 {
		t.Fatal("out-of-range q must clamp")
	}
	// A large sample: p95/p99 sit between the neighbouring order statistics
	// (R-7), while the nearest-rank percentile is always an observation.
	var big Sample
	for i := 1; i <= 100; i++ {
		big.Add(float64(i))
	}
	if p95, p99 := big.Quantile(0.95), big.Quantile(0.99); math.Abs(p95-95.05) > 1e-9 || math.Abs(p99-99.01) > 1e-9 {
		t.Fatalf("p95/p99 = %v/%v, want 95.05/99.01 (R-7)", p95, p99)
	}
	if big.Percentile(50) != 50 || big.Percentile(99) != 99 || big.Percentile(100) != 100 || empty.Percentile(99) != 0 {
		t.Fatalf("nearest-rank p50/p99/p100 = %v/%v/%v", big.Percentile(50), big.Percentile(99), big.Percentile(100))
	}
	if math.Abs(s.CI95()-1.96*s.StdDev()/2) > 1e-12 {
		t.Fatalf("ci95 = %v", s.CI95())
	}
	// A constant sample has no spread, whatever sum/n rounds to: 20 × 0.637
	// averages to 0.6370000000000002.
	var flat Sample
	for i := 0; i < 20; i++ {
		flat.Add(0.637)
	}
	if flat.StdDev() != 0 || flat.CI95() != 0 || flat.Summary().CI95 != 0 {
		t.Fatalf("constant sample: stddev %v, ci95 %v, want exactly 0", flat.StdDev(), flat.CI95())
	}
}

func TestMergeMetric(t *testing.T) {
	runs := []RunResult{
		{Metrics: map[string]float64{"x": 1}},
		{Err: "failed"},
		{Metrics: map[string]float64{"x": 3, "y": 9}},
	}
	s := MergeMetric(runs, "x")
	if s.N() != 2 || s.Mean() != 2 {
		t.Fatalf("merged x: n=%d mean=%v", s.N(), s.Mean())
	}
}

// TestSchedulerPoolingTransparent: runs executed through the worker pool
// (which injects a reused, Reset scheduler per worker) must produce exactly
// the metrics of the same extractor invoked standalone on a fresh scheduler,
// and the retained results must not leak the pooled scheduler out of the
// worker (Params.Config.Scheduler stays as the spec derived it: nil).
func TestSchedulerPoolingTransparent(t *testing.T) {
	spec := &Spec{
		Name:  "pool-transparent",
		Base:  canely.DefaultConfig(),
		Seeds: SeedRange{Base: 7, N: 8},
		Run: func(p Params) (map[string]float64, error) {
			net := canely.NewNetwork(p.Config, 5)
			net.BootstrapAll()
			net.Run(200 * time.Millisecond)
			net.Node(2).Crash()
			net.Run(p.Config.DetectionLatencyBound() + p.Config.Tm)
			m := net.Node(0).View()
			return map[string]float64{"members": float64(m.Count())}, nil
		},
	}
	runs := mustRun(t, spec, 2)
	for _, res := range runs {
		if res.Failed() {
			t.Fatalf("run %d failed: %s", res.Params.Index, res.Err)
		}
		if res.Params.Config.Scheduler != nil {
			t.Fatalf("run %d retained the pooled scheduler in its Params", res.Params.Index)
		}
		fresh, err := spec.Run(res.Params) // Scheduler nil: standalone, unpooled
		if err != nil {
			t.Fatalf("standalone rerun %d: %v", res.Params.Index, err)
		}
		if len(fresh) != len(res.Metrics) || fresh["members"] != res.Metrics["members"] {
			t.Fatalf("run %d: pooled metrics %v != fresh metrics %v",
				res.Params.Index, res.Metrics, fresh)
		}
	}
}
