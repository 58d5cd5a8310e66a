package campaign

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// MetricReport is the aggregate of one metric at one grid point.
type MetricReport struct {
	Name string `json:"name"`
	Agg  Agg    `json:"agg"`
}

// PointReport summarizes all runs of one grid point.
type PointReport struct {
	Labels []Label `json:"labels,omitempty"`
	Runs   int     `json:"runs"`
	Failed int     `json:"failed"`
	// Errors lists the distinct failure messages in first-occurrence order.
	Errors []string `json:"errors,omitempty"`
	// Metrics are sorted by name.
	Metrics []MetricReport `json:"metrics"`
}

// Key renders the point's grid coordinates, e.g. "tb=10ms,tm=50ms".
func (p PointReport) Key() string {
	if len(p.Labels) == 0 {
		return "(single point)"
	}
	parts := make([]string, len(p.Labels))
	for i, l := range p.Labels {
		parts[i] = l.String()
	}
	return strings.Join(parts, ",")
}

// Metric returns the aggregate of the named metric at this point, or the
// zero Agg (Count 0) when no run of the point reported it.
func (p PointReport) Metric(name string) Agg {
	for _, m := range p.Metrics {
		if m.Name == name {
			return m.Agg
		}
	}
	return Agg{}
}

// Report is the statistical summary of a campaign: the exported artifact.
// It carries no wall-clock state, so two executions of the same spec
// produce byte-identical JSON regardless of worker count.
type Report struct {
	Name   string        `json:"name"`
	Axes   []string      `json:"axes,omitempty"`
	Seeds  int           `json:"seeds"`
	Runs   int           `json:"runs"`
	Failed int           `json:"failed"`
	Points []PointReport `json:"points"`
}

// Summarize reduces ordered run results to a Report. Results must be in run
// order, as returned by Runner.Run; aggregation is sequential, so the
// floating-point reductions are reproducible.
func Summarize(spec *Spec, runs []RunResult) *Report {
	rep := &Report{Name: spec.Name, Seeds: spec.seedsN(), Runs: len(runs)}
	for _, ax := range spec.Axes {
		rep.Axes = append(rep.Axes, ax.Name)
	}
	points := spec.Points()
	for pt := 0; pt < points; pt++ {
		pr := PointReport{}
		samples := map[string]*Sample{}
		for _, r := range runs {
			if r.Params.Point != pt {
				continue
			}
			if pr.Runs == 0 {
				pr.Labels = r.Params.Labels
			}
			pr.Runs++
			if r.Failed() {
				pr.Failed++
				rep.Failed++
				if !contains(pr.Errors, r.Err) {
					pr.Errors = append(pr.Errors, r.Err)
				}
				continue
			}
			// Metric names iterate a map, but each value lands in its own
			// accumulator, so the per-metric Add order stays the run order.
			for name, v := range r.Metrics {
				s := samples[name]
				if s == nil {
					s = &Sample{}
					samples[name] = s
				}
				s.Add(v)
			}
		}
		names := make([]string, 0, len(samples))
		for name := range samples {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			pr.Metrics = append(pr.Metrics, MetricReport{Name: name, Agg: samples[name].Summary()})
		}
		rep.Points = append(rep.Points, pr)
	}
	return rep
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// JSON renders the report as indented, deterministic JSON.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteCSV writes one row per (grid point, metric) with the axis values as
// leading columns.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{}, r.Axes...)
	header = append(header, "metric", "count", "failed", "mean", "min", "max", "p50", "p95", "p99", "ci95")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range r.Points {
		for _, m := range p.Metrics {
			row := make([]string, 0, len(header))
			for _, l := range p.Labels {
				row = append(row, l.Value)
			}
			row = append(row, m.Name,
				strconv.Itoa(m.Agg.Count), strconv.Itoa(p.Failed),
				ftoa(m.Agg.Mean), ftoa(m.Agg.Min), ftoa(m.Agg.Max),
				ftoa(m.Agg.P50), ftoa(m.Agg.P95), ftoa(m.Agg.P99), ftoa(m.Agg.CI95))
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Table renders the report as a human-readable table.
func (r *Report) Table() string {
	keyW := len("point")
	for _, p := range r.Points {
		if n := len(p.Key()); n > keyW {
			keyW = n
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign %q: %d runs (%d failed)\n", r.Name, r.Runs, r.Failed)
	fmt.Fprintf(&sb, "%-*s %-22s %6s %10s %10s %10s %10s %10s %10s\n",
		keyW, "point", "metric", "n", "mean", "p50", "p95", "p99", "max", "±ci95")
	for _, p := range r.Points {
		for _, m := range p.Metrics {
			a := m.Agg
			fmt.Fprintf(&sb, "%-*s %-22s %6d %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g\n",
				keyW, p.Key(), m.Name, a.Count, a.Mean, a.P50, a.P95, a.P99, a.Max, a.CI95)
		}
		if p.Failed > 0 {
			fmt.Fprintf(&sb, "%-*s %d/%d runs failed: %s\n",
				keyW, p.Key(), p.Failed, p.Runs, strings.Join(p.Errors, "; "))
		}
	}
	return sb.String()
}
