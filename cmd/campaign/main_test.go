package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"canely"
	"canely/internal/campaign"
	"canely/internal/experiments"
)

func TestParseGrid(t *testing.T) {
	axes, err := parseGrid("tb=5ms,10ms; pcorrupt=0,0.01 ;j=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(axes) != 3 {
		t.Fatalf("got %d axes, want 3", len(axes))
	}
	if axes[0].Name != "tb" || len(axes[0].Values) != 2 {
		t.Fatalf("tb axis wrong: %+v", axes[0])
	}
	if axes[0].Values[1].Label != "10ms" || axes[0].Values[1].Value != 10*time.Millisecond {
		t.Fatalf("tb value wrong: %+v", axes[0].Values[1])
	}
	var cfg canely.Config
	axes[0].Values[0].Apply(&cfg)
	axes[1].Values[1].Apply(&cfg)
	axes[2].Values[0].Apply(&cfg)
	if cfg.Tb != 5*time.Millisecond || cfg.PCorrupt != 0.01 || cfg.J != 2 {
		t.Fatalf("applied config wrong: %+v", cfg)
	}
}

func TestParseGridEmpty(t *testing.T) {
	axes, err := parseGrid("  ")
	if err != nil || axes != nil {
		t.Fatalf("blank grid: got %v, %v; want nil, nil", axes, err)
	}
}

func TestParseGridErrors(t *testing.T) {
	for _, bad := range []string{
		"tb",            // no '='
		"tb=",           // no values
		"tb=fast",       // bad duration
		"pcorrupt=lots", // bad float
		"j=two",         // bad int
		"warp=9",        // unknown key
	} {
		if _, err := parseGrid(bad); err == nil {
			t.Errorf("parseGrid(%q): want error, got nil", bad)
		}
	}
}

// TestStudyByName: -study resolves every table name (and the empty name to
// the default), and an unknown name is rejected with the list of names.
func TestStudyByName(t *testing.T) {
	for _, want := range experiments.Studies {
		got, err := studyByName(want.Name)
		if err != nil || got.Name != want.Name {
			t.Errorf("studyByName(%q) = %q, %v", want.Name, got.Name, err)
		}
		if !strings.Contains(studyHelp(), want.Name) {
			t.Errorf("-study help does not mention %q", want.Name)
		}
	}
	if def, err := studyByName(""); err != nil || def.Name != "crash-qos" {
		t.Errorf("default study = %q, %v; want crash-qos", def.Name, err)
	}
	_, err := studyByName("bench")
	if err == nil {
		t.Fatal("unknown study accepted")
	}
	for _, st := range experiments.Studies {
		if !strings.Contains(err.Error(), st.Name) {
			t.Errorf("error %q does not list %q", err, st.Name)
		}
	}
}

// TestCampaignEndToEnd runs a tiny real campaign through the same spec the
// CLI builds and checks the exported artifacts are well-formed.
func TestCampaignEndToEnd(t *testing.T) {
	axes, err := parseGrid("tb=10ms")
	if err != nil {
		t.Fatal(err)
	}
	spec := experiments.Studies[0].Spec(canely.DefaultConfig(), 5, axes,
		campaign.SeedRange{Base: 1, N: 2})
	runner := campaign.Runner{Workers: 2}
	results, err := runner.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := campaign.Summarize(spec, results)
	if rep.Runs != 2 || rep.Failed != 0 {
		t.Fatalf("runs=%d failed=%d, want 2/0", rep.Runs, rep.Failed)
	}
	table := rep.Table()
	if !strings.Contains(table, "tb=10ms") || !strings.Contains(table, "detection_ms") {
		t.Fatalf("table lacks expected content:\n%s", table)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded campaign.Report
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("exported JSON does not round-trip: %v", err)
	}
	if decoded.Name != "crash-detection-qos" {
		t.Fatalf("decoded name %q", decoded.Name)
	}
}
