package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// Verdicts of compare, per (workload, metric).
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's direction and bound to a baseline a and a
// candidate b. A move beyond the bound is only called when the noise allows
// it: if either side's q1–q3 spread is wider than the bound and the two
// sides' batches overlap, the verdict is unresolved.
func judge(d metricDef, a, b metric) (verdict string, change float64) {
	if a.Value == 0 {
		return verdictUnresolved, 0
	}
	change = (b.Value - a.Value) / a.Value // > 0: b reads higher
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > d.Bound:
		verdict = verdictWorse
	case worse < -d.Bound:
		verdict = verdictBetter
	default:
		return verdictSame, change
	}
	if a.Spread != nil && b.Spread != nil {
		wide := func(m metric) bool { return m.Spread.Q3-m.Spread.Q1 > d.Bound*m.Spread.Median }
		overlap := a.Spread.Min <= b.Spread.Max && b.Spread.Min <= a.Spread.Max
		if (wide(a) || wide(b)) && overlap {
			verdict = verdictUnresolved
		}
	}
	return verdict, change
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain prints one row per (workload, metric) of two result files and
// returns the exit status: 1 when any row is worse, 2 on usage errors.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := readResult(args[0])
	if err == nil {
		var b *resultFile
		if b, err = readResult(args[1]); err == nil {
			return compareFiles(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func compareFiles(a, b *resultFile) int {
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	status := 0
	row := func(workload, metric, verdict, detail string) {
		fmt.Printf("%-16s %-24s %-10s %s\n", workload, metric, verdict, detail)
		if verdict == verdictWorse {
			status = 1
		}
	}
	fmt.Printf("%-16s %-24s %-10s %s\n", "workload", "metric", "verdict", "A → B")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			row(wa.Name, "-", verdictUnresolved, "missing from B")
			continue
		}
		for _, d := range endToEndDefs {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v, change := judge(d, ma, mb)
			row(wa.Name, d.Name, v, fmt.Sprintf("%.4f → %.4f %s (%+.2f%%, bound %.0f%%, %s is better)",
				ma.Value, mb.Value, d.Unit, 100*change, 100*d.Bound, d.Better))
		}
		// Exact quantities have no bound: any difference between two runs
		// with the same seed and batch count is a changed output.
		switch {
		case a.Seed != b.Seed || wa.Batches != wb.Batches:
			row(wa.Name, "exact", verdictUnresolved, "different seed or batch count")
		case reflect.DeepEqual(wa.Exact, wb.Exact) && wa.Failed == wb.Failed:
			row(wa.Name, "exact", verdictSame, fmt.Sprintf("digest %s, %d failed", wa.Exact.Digest, wa.Failed))
		default:
			row(wa.Name, "exact", verdictWorse, fmt.Sprintf("%+v (%d failed) → %+v (%d failed)", wa.Exact, wa.Failed, wb.Exact, wb.Failed))
		}
	}
	return status
}
