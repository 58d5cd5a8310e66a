package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
)

// pins are the exact observations of a workload the correctness gate
// compares with expected.json: what the protocols did, not how much work
// the implementation spent doing it.
type pins struct {
	Counts             map[string]float64 `json:"counts"`
	DetectN            int                `json:"detect_n"`
	DetectP50VirtMs    float64            `json:"detect_p50_virt_ms"`
	DetectP99VirtMs    float64            `json:"detect_p99_virt_ms"`
	ProtocolBusUtilPct float64            `json:"protocol_bus_util_pct"`
	Digest             string             `json:"digest"`
}

// pinned reports whether a count is protocol behaviour (frames on the
// medium, the explorer's tree shape, views that lost a live node) rather
// than implementation effort (events fired, steps replayed) or a counter
// read while its writers may still be running (messages the broker sent).
func pinned(name string) bool {
	return strings.Contains(name, ".frames_") || name == "datagram.dropped" ||
		strings.HasPrefix(name, "explore.canely.") || strings.HasPrefix(name, "explore.gossip.") ||
		name == "gossip.false_dead_views"
}

func (o *observed) detectQuantiles() (p50, p99 float64) {
	d := append([]float64(nil), o.detect...)
	sort.Float64s(d)
	return quantile(d, 0.5), quantile(d, 0.99)
}

func (o *observed) pins() pins {
	p := pins{Counts: map[string]float64{}, DetectN: len(o.detect),
		ProtocolBusUtilPct: o.protocolUtilPct(), Digest: fmt.Sprintf("%016x", o.digest.Sum64())}
	for k, v := range o.counts {
		if pinned(k) {
			p.Counts[k] = v
		}
	}
	p.DetectP50VirtMs, p.DetectP99VirtMs = o.detectQuantiles()
	return p
}

// expectedWorkload pins one workload at expectedFile's seed: First after
// batch 0 (checked by every run at that seed), Full after Batches batches
// (checked when a run executed exactly that many).
type expectedWorkload struct {
	Batches int  `json:"batches"`
	First   pins `json:"first"`
	Full    pins `json:"full"`
}

type expectedFile struct {
	Seed      int64                       `json:"seed"`
	Workloads map[string]expectedWorkload `json:"workloads"`
}

// expectedPath is relative to the repo root, where the benchmark runs.
const expectedPath = "bench/expected.json"

func loadExpected(path string) (*expectedFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var exp expectedFile
	if err := json.Unmarshal(raw, &exp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &exp, nil
}

// diffPins lists the fields in which got differs from want.
func diffPins(label string, got, want pins) []string {
	var out []string
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			out = append(out, fmt.Sprintf("%s %s: got %v, expected %v", label, gv.Type().Field(i).Tag.Get("json"), g, w))
		}
	}
	return out
}

// gate returns what makes a pass's output wrong: its own breaches and, at
// the pinned seed and full scale, every departure from expected.json.
func gate(r *passResult, o passOpts, exp *expectedFile) []string {
	bad := append([]string(nil), r.incorrect...)
	if exp == nil || o.seed != exp.Seed || o.scale != 1 {
		return bad
	}
	want, ok := exp.Workloads[r.w.name]
	if !ok {
		return append(bad, "no entry in "+expectedPath)
	}
	bad = append(bad, diffPins("after batch 0", r.first, want.First)...)
	if len(r.batches) == want.Batches {
		bad = append(bad, diffPins(fmt.Sprintf("after %d batches", want.Batches), r.obs.pins(), want.Full)...)
	}
	return bad
}
