package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func quickOpts(t *testing.T) passOpts {
	return passOpts{seed: 1, scale: 1.0 / 20, batches: 1, setups: 1, outDir: t.TempDir()}
}

// TestQuickPass runs every workload at 1/20 of its work, twice untraced and
// once traced: nothing may fail, the exact observations of the two untraced
// passes must be identical, every end-to-end metric must be non-zero, and
// the traced pass must yield exactly the per-layer metrics the tables name.
func TestQuickPass(t *testing.T) {
	unit := measureLayers()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			o := quickOpts(t)
			a, err := runPass(w, o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runPass(w, o)
			if err != nil {
				t.Fatal(err)
			}
			o.tr = newTracer()
			tp, err := runPass(w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*passResult{a, b, tp} {
				if p.failed > 0 || len(p.incorrect) > 0 || p.attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v %v", p.attempted, p.failed, p.failures, p.incorrect)
				}
			}
			if pa, pb := a.obs.pins(), b.obs.pins(); !reflect.DeepEqual(pa, pb) {
				t.Errorf("two passes disagree on exact observations:\n%+v\n%+v", pa, pb)
			}
			if pa, pt := a.obs.pins(), tp.obs.pins(); !reflect.DeepEqual(pa, pt) {
				t.Errorf("traced pass disagrees with untraced on exact observations:\n%+v\n%+v", pa, pt)
			}
			for name, m := range a.endToEnd() {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			layers := layerMetrics(a, tp, unit, o.tr)
			if len(layers) != len(perLayerDefs) {
				t.Errorf("traced pass yields %d layer metrics, tables name %d", len(layers), len(perLayerDefs))
			}
			for _, d := range perLayerDefs {
				if _, ok := layers[d.Name]; !ok {
					t.Errorf("layer metric %s not produced", d.Name)
				}
			}
			if len(o.tr.spans) == 0 {
				t.Error("traced pass recorded no span")
			}
		})
	}
	for _, d := range perLayerDefs {
		if v, ok := unit[d.Name]; ok && !(v > 0) {
			t.Errorf("unit cost %s = %v, want > 0", d.Name, v)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's own tables in
// step: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var file struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, got []entry, want []entry) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d entries, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
			if !name.MatchString(want[i].Name) || seen[want[i].Name] {
				t.Errorf("%s[%d]: name %q malformed or reused", kind, i, want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	var ws, e2e, layers []entry
	for _, w := range workloads {
		ws = append(ws, entry{Name: w.name, Why: w.why})
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	for _, d := range endToEndDefs {
		e2e = append(e2e, entry{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayerDefs {
		layers = append(layers, entry{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	check("workloads", file.Workloads, ws)
	check("end_to_end", file.EndToEnd, e2e)
	check("per_layer", file.PerLayer, layers)
}

// TestExpectedCoversWorkloads checks that the correctness gate has pins for
// every workload.
func TestExpectedCoversWorkloads(t *testing.T) {
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		e, ok := exp.Workloads[w.name]
		if !ok || e.Batches != w.batches || e.First.Digest == "" || e.Full.Digest == "" {
			t.Errorf("%s: expected.json entry missing or stale (batches %d, want %d)", w.name, e.Batches, w.batches)
		}
	}
}

func TestJudge(t *testing.T) {
	spread := func(med, iqr, min, max float64) *summary {
		return &summary{Median: med, Q1: med - iqr/2, Q3: med + iqr/2, Min: min, Max: max, N: 16}
	}
	higher := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	tight := func(v float64) metric { return metric{Value: v, Spread: spread(v, 0.01*v, 0.98*v, 1.02*v)} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b metric
		want string
	}{
		{"within bound", higher, tight(100), tight(95), verdictSame},
		{"higher-is-better drops beyond bound", higher, tight(100), tight(85), verdictWorse},
		{"higher-is-better rises beyond bound", higher, tight(100), tight(120), verdictBetter},
		{"lower-is-better rises beyond bound", lower, tight(100), tight(120), verdictWorse},
		{"lower-is-better drops beyond bound", lower, tight(100), tight(80), verdictBetter},
		{"exactly at the bound is not worse", lower, tight(100), tight(110), verdictSame},
		{"wide spread and overlapping batches", higher,
			metric{Value: 100, Spread: spread(100, 30, 70, 130)},
			metric{Value: 85, Spread: spread(85, 30, 60, 115)}, verdictUnresolved},
		{"wide spread but disjoint batches", higher,
			metric{Value: 100, Spread: spread(100, 12, 92, 110)},
			metric{Value: 70, Spread: spread(70, 12, 60, 80)}, verdictWorse},
		{"zero baseline", higher, metric{}, tight(1), verdictUnresolved},
	} {
		if got, _ := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesFlagsChangedOutput(t *testing.T) {
	res := func(digest string) *resultFile {
		m := map[string]metric{}
		for _, d := range endToEndDefs {
			m[d.Name] = metric{Value: 1, Unit: d.Unit}
		}
		return &resultFile{Seed: 1, Workloads: []*workloadResult{{Name: "steady_traffic", Batches: 20, EndToEnd: m, Exact: pins{Digest: digest}}}}
	}
	if status := compareFiles(res("aa"), res("aa")); status != 0 {
		t.Errorf("identical files: status %d, want 0", status)
	}
	if status := compareFiles(res("aa"), res("bb")); status != 1 {
		t.Errorf("changed digest: status %d, want 1", status)
	}
}
