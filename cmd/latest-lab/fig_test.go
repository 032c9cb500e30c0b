package main

import (
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/spatiotext/latest/internal/experiments"
)

// TestFigConfig pins the RunConfig every fig flag builds. An unset flag
// leaves its field zero, which experiments.Run fills from the experiment.
func TestFigConfig(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want experiments.RunConfig
	}{
		{nil, experiments.RunConfig{}},
		{[]string{"-seed", "7"}, experiments.RunConfig{Seed: 7}},
		{[]string{"-rate", "0.5"}, experiments.RunConfig{Rate: 0.5}},
		{[]string{"-queries", "200"}, experiments.RunConfig{Queries: 200}},
		{[]string{"-pretrain", "100"}, experiments.RunConfig{PretrainQueries: 100}},
		{[]string{"-window", "2000"}, experiments.RunConfig{WindowMS: 2000}},
		{[]string{"-scale", "2"}, experiments.RunConfig{Scale: 2}},
		{[]string{"-alpha", "0"}, experiments.RunConfig{Alpha: 0, AlphaSet: true}},
		{[]string{"-alpha", "0.3"}, experiments.RunConfig{Alpha: 0.3, AlphaSet: true}},
		{[]string{"-json"}, experiments.RunConfig{}},
	} {
		id, _, cfg, ok := parseFig(append([]string{"fig3"}, tc.args...), io.Discard)
		if !ok {
			t.Errorf("%q: refused", tc.args)
			continue
		}
		if id != "fig3" {
			t.Errorf("%q: id %q, want fig3", tc.args, id)
		}
		if !reflect.DeepEqual(cfg, tc.want) {
			t.Errorf("%q: RunConfig %+v, want %+v", tc.args, cfg, tc.want)
		}
	}
}

func TestListFlag(t *testing.T) {
	code, stdout, stderr := runLab(t, "fig", "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, id := range []string{"fig3", "table1"} {
		if !strings.Contains(stdout, id) {
			t.Errorf("-list output missing %s:\n%s", id, stdout)
		}
	}
}

func TestMissingExpIsUsageError(t *testing.T) {
	code, _, stderr := runLab(t, "fig")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "experiment id required") {
		t.Errorf("stderr missing usage hint:\n%s", stderr)
	}
}

func TestUnknownExp(t *testing.T) {
	code, _, stderr := runLab(t, "fig", "nonsense")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown experiment "nonsense"`) {
		t.Errorf("stderr does not name the id:\n%s", stderr)
	}
}

// TestExperimentJSON runs the smallest real experiment through -json
// and checks it emits one parseable JSON document per experiment.
func TestExperimentJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips real experiment run")
	}
	code, stdout, stderr := runLab(t, "fig", "fig3", "-queries", "60", "-pretrain", "30",
		"-window", "2000", "-rate", "0.5", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	var res map[string]any
	dec := json.NewDecoder(strings.NewReader(stdout))
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("-json stdout is not JSON: %v\n%s", err, stdout)
	}
	if res["experiment"] != "fig3" {
		t.Errorf("result names experiment %v, want fig3", res["experiment"])
	}
	if dec.More() {
		t.Errorf("-json wrote more than one document for one experiment:\n%s", stdout)
	}
}
