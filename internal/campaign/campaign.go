// Package campaign is a parallel Monte-Carlo simulation-campaign engine.
//
// A campaign fans a parameter grid × seed sweep × fault-plan matrix out into
// many independent CANELy simulations. Each run stays single-threaded and
// bit-reproducible — the parallelism is *across* runs, scaling with
// GOMAXPROCS — and the per-run results are reduced to mergeable statistical
// aggregates (count/mean/min/max, interpolated quantiles, 95% confidence
// intervals) that are byte-identical regardless of how many workers executed
// the campaign or in which order the runs completed.
//
// The moving parts:
//
//   - Spec declares the campaign: a base canely.Config, grid Axes that
//     mutate it (heartbeat periods, fault plans, …), a SeedRange swept at
//     every grid point, and a per-run extractor func returning named
//     metrics.
//   - Runner executes the runs on a bounded worker pool with context
//     cancellation, per-run panic isolation (a panicking run is recorded as
//     a failed trial, not a crashed campaign) and progress callbacks.
//   - Summarize reduces the ordered run results to a Report; the Report
//     exports as JSON, CSV and a human table.
//
// Determinism contract: the extractor must build all simulation state
// (networks, fault scripts) from its Params alone — runs share nothing, so
// the result of run i never depends on scheduling. Stateful injectors such
// as *fault.Script must be constructed inside an AxisValue.Apply or inside
// the extractor, never shared through Spec.Base.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"canely"
	"canely/internal/sim"
)

// Label is one axis coordinate of a grid point, e.g. {"tb", "10ms"}.
type Label struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

func (l Label) String() string { return l.Axis + "=" + l.Value }

// AxisValue is one value on a grid axis. Apply (optional) mutates the run's
// configuration; Value (optional) is an opaque payload the extractor can
// read through Params.Values — the escape hatch for workload parameters
// (churn counts, network sizes) that live outside canely.Config. Apply is
// invoked once per run on that run's private Config copy, so it is the
// right place to build per-run stateful fault scripts.
type AxisValue struct {
	Label string
	Apply func(*canely.Config)
	Value any
}

// Axis is one dimension of the parameter grid.
type Axis struct {
	Name   string
	Values []AxisValue
}

// DurationAxis builds an axis over a time.Duration configuration knob.
func DurationAxis(name string, apply func(*canely.Config, time.Duration), vals ...time.Duration) Axis {
	ax := Axis{Name: name}
	for _, v := range vals {
		v := v
		ax.Values = append(ax.Values, AxisValue{
			Label: v.String(),
			Apply: func(c *canely.Config) { apply(c, v) },
			Value: v,
		})
	}
	return ax
}

// FloatAxis builds an axis over a float64 configuration knob (e.g. fault
// probabilities).
func FloatAxis(name string, apply func(*canely.Config, float64), vals ...float64) Axis {
	ax := Axis{Name: name}
	for _, v := range vals {
		v := v
		ax.Values = append(ax.Values, AxisValue{
			Label: fmt.Sprintf("%g", v),
			Apply: func(c *canely.Config) { apply(c, v) },
			Value: v,
		})
	}
	return ax
}

// IntAxis builds a workload axis over plain integers, carried to the
// extractor through Params.Values without touching the configuration.
func IntAxis(name string, vals ...int) Axis {
	ax := Axis{Name: name}
	for _, v := range vals {
		ax.Values = append(ax.Values, AxisValue{Label: fmt.Sprintf("%d", v), Value: v})
	}
	return ax
}

// SeedRange is the seed sweep applied at every grid point: seeds
// Base..Base+N-1. Every grid point sees the same seeds, which pairs the
// comparison across points.
type SeedRange struct {
	Base int64
	N    int
}

// Params is the full parameterization of one run, derived deterministically
// from the run index alone.
type Params struct {
	// Index is the global run index in 0..TotalRuns-1; Point and Trial are
	// its decomposition into grid point and seed position.
	Index int
	Point int
	Trial int
	// Seed is the simulation seed, already installed in Config.Seed.
	Seed int64
	// Config is this run's private configuration copy: base config with the
	// grid point's axis values applied.
	Config canely.Config
	// Labels and Values mirror the grid point's axis coordinates (Values
	// holds the AxisValue.Value payloads, one per axis, possibly nil).
	Labels []Label
	Values []any
}

// Extractor runs one simulation and reduces it to named metrics. A nil map
// with a nil error is allowed (a run that contributes no samples). Errors
// and panics are recorded as failed trials.
type Extractor func(p Params) (map[string]float64, error)

// Spec declares a campaign.
type Spec struct {
	// Name tags the exported artifacts.
	Name string
	// Base is the configuration every run starts from. It must not carry
	// shared mutable state (see the package determinism contract).
	Base canely.Config
	// Axes span the parameter grid; an empty grid is a single point.
	Axes []Axis
	// Seeds is the per-point seed sweep; N defaults to 1.
	Seeds SeedRange
	// Run is the per-run extractor.
	Run Extractor
}

// Points returns the number of grid points (product of axis sizes).
func (s *Spec) Points() int {
	n := 1
	for _, ax := range s.Axes {
		n *= len(ax.Values)
	}
	return n
}

func (s *Spec) seedsN() int {
	if s.Seeds.N <= 0 {
		return 1
	}
	return s.Seeds.N
}

// TotalRuns returns the campaign size: grid points × seeds.
func (s *Spec) TotalRuns() int { return s.Points() * s.seedsN() }

// validate rejects malformed specs before any worker starts.
func (s *Spec) validate() error {
	if s.Run == nil {
		return fmt.Errorf("campaign: spec %q has no extractor", s.Name)
	}
	for _, ax := range s.Axes {
		if len(ax.Values) == 0 {
			return fmt.Errorf("campaign: axis %q has no values", ax.Name)
		}
	}
	return nil
}

// params derives run i's full parameterization. Runs are enumerated
// point-major (all seeds of point 0, then point 1, …) and points odometer
// style with the last axis fastest.
func (s *Spec) params(i int) Params {
	seeds := s.seedsN()
	p := Params{Index: i, Point: i / seeds, Trial: i % seeds}
	p.Seed = s.Seeds.Base + int64(p.Trial)
	p.Config = s.Base
	if len(s.Axes) > 0 {
		idx := make([]int, len(s.Axes))
		rem := p.Point
		for a := len(s.Axes) - 1; a >= 0; a-- {
			n := len(s.Axes[a].Values)
			idx[a] = rem % n
			rem /= n
		}
		p.Labels = make([]Label, len(s.Axes))
		p.Values = make([]any, len(s.Axes))
		for a, ax := range s.Axes {
			v := ax.Values[idx[a]]
			p.Labels[a] = Label{Axis: ax.Name, Value: v.Label}
			p.Values[a] = v.Value
			if v.Apply != nil {
				v.Apply(&p.Config)
			}
		}
	}
	p.Config.Seed = p.Seed
	return p
}

// RunResult is the outcome of one run.
type RunResult struct {
	Params  Params
	Metrics map[string]float64
	// Err is non-empty for a failed trial: an extractor error or a
	// recovered panic.
	Err string
}

// Failed reports whether the run is a failed trial.
func (r RunResult) Failed() bool { return r.Err != "" }

// execute runs one trial with panic isolation. sched, when non-nil, is the
// worker's pooled scheduler: it is handed to the extractor through
// Params.Config.Scheduler so canely.NewNetwork resets and reuses its arena
// instead of growing a fresh one per run. The retained result keeps
// Config.Scheduler as derived from the spec (normally nil), so results are
// byte-identical whether or not pooling was in effect.
func (s *Spec) execute(i int, sched *sim.Scheduler) (res RunResult) {
	res.Params = s.params(i)
	defer func() {
		if r := recover(); r != nil {
			res.Metrics = nil
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	p := res.Params
	if sched != nil {
		p.Config.Scheduler = sched
	}
	m, err := s.Run(p)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Metrics = m
	return res
}

// Runner executes campaigns on a bounded worker pool.
type Runner struct {
	// Workers bounds the concurrent runs; <= 0 means GOMAXPROCS.
	Workers int
	// Progress, if set, is called after every completed run with the number
	// of runs done so far and the campaign total. Calls are serialized but
	// arrive in completion order, which depends on scheduling. Setting it
	// puts a shared mutex on the completion path; throughput benchmarks
	// leave it nil.
	Progress func(done, total int)
}

// Run executes every run of the spec and returns the results ordered by run
// index — the ordering (and therefore every aggregate computed from it) is
// independent of worker count and completion order. On context
// cancellation the workers stop claiming further runs, finish the run in
// flight, and Run returns ctx.Err().
//
// Work distribution is chunked claiming off an atomic cursor: a worker
// grabs a span of consecutive run indices at a time, so the per-run cost of
// synchronization is 1/chunk-th of an atomic add, with no channel handoff
// and no per-run write to state another worker touches. Runs within a chunk
// share grid-point cache locality (runs are enumerated point-major), and the
// chunk size caps at a small fraction of total/workers so tail imbalance
// stays bounded.
//
// Each worker owns one arena-backed scheduler for its whole lifetime,
// injected into every run through Config.Scheduler (see execute): after the
// first few runs the arena has grown to the campaign's peak live-event
// population and run churn stops touching the allocator, which is what
// keeps the w1→wN ladder off the allocator's shared locks.
func (r *Runner) Run(ctx context.Context, spec *Spec) ([]RunResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := spec.TotalRuns()
	if workers > total {
		workers = total
	}
	chunk := total / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 64 {
		chunk = 64
	}
	results := make([]RunResult, total)
	var (
		cursor  atomic.Int64
		skipped atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		done    int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched := sim.NewScheduler()
			for {
				if ctx.Err() != nil {
					skipped.Store(true)
					return
				}
				start := int(cursor.Add(int64(chunk))) - chunk
				if start >= total {
					return
				}
				end := start + chunk
				if end > total {
					end = total
				}
				for i := start; i < end; i++ {
					if ctx.Err() != nil {
						skipped.Store(true)
						return
					}
					results[i] = spec.execute(i, sched)
					if r.Progress != nil {
						mu.Lock()
						done++
						r.Progress(done, total)
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	if skipped.Load() {
		return nil, ctx.Err()
	}
	return results, nil
}
