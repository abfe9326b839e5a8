package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestManifestMatchesRunner loads ../BENCHMARK.json and fails unless it
// is a manifest the driver accepts and the runner honours — so a
// manifest_invalid rejection cannot recur silently.
func TestManifestMatchesRunner(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(blob))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(raw); !reflect.DeepEqual(got, wantKeys) {
		t.Errorf("keys %v, want exactly %v", got, wantKeys)
	}
	// Exactly the keys of each entry, nothing more.
	entryKeys := map[string][]string{
		"workloads":  {"name", "why"},
		"end_to_end": {"better", "bound", "name", "unit"},
		"per_layer":  {"better", "name", "unit"},
	}
	for section, want := range entryKeys {
		var entries []map[string]json.RawMessage
		if err := json.Unmarshal(raw[section], &entries); err != nil {
			t.Fatalf("%s: %v", section, err)
		}
		for _, e := range entries {
			if got := sortedKeys(e); !reflect.DeepEqual(got, want) {
				t.Errorf("%s entry %s has keys %v, want exactly %v", section, e["name"], got, want)
			}
		}
	}

	var m manifest
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, manifestJSON()) {
		t.Error("BENCHMARK.json differs from what the runner declares; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}

	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", m.Paths)
	}
	if len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("command has %d elements", len(m.Command))
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command element %q", c)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	// 4 + 22 x workloads runs, each at most set-up + run + drain, plus
	// two builds, inside the driver's 3420 s.
	if runs := 4 + 22*len(m.Workloads); float64(runs)*(float64(m.RunSeconds)+8)+2*120 > 3420 {
		t.Errorf("%d runs of %d s do not fit the driver's time cap", runs, m.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != 5 {
		t.Errorf("%d workloads, want 5", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but the runner cannot run it", w.Name)
		}
	}
	if len(workloads) != len(m.Workloads) {
		t.Errorf("runner has %d workloads, manifest %d", len(workloads), len(m.Workloads))
	}

	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	setup := false
	maxBound := 0.0
	for _, d := range m.EndToEnd {
		name("end-to-end", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > maxBound {
			maxBound = d.Bound
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (unit s, lower is better) is missing")
	}
	if d, _ := e2eDeclOf("setup_s"); d.Bound != maxBound {
		t.Errorf("setup_s has bound %v; it must have the largest (%v)", d.Bound, maxBound)
	}

	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	known := map[string]bool{}
	for _, w := range m.Workloads {
		known[w.Name] = true
	}
	for _, d := range layerDecls {
		name("per-layer", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		// Every per-layer metric names the end-to-end metric and the
		// workloads it should move.
		if _, ok := e2eDeclOf(d.Moves); !ok {
			t.Errorf("%s: should move %q, which is not an end-to-end metric", d.Name, d.Moves)
		}
		if len(d.On) == 0 {
			t.Errorf("%s: names no workload it should move", d.Name)
		}
		for _, w := range append(append([]string{}, d.On...), d.NoMove...) {
			if !known[w] {
				t.Errorf("%s: unknown workload %q", d.Name, w)
			}
		}
		switch d.Source {
		case "seam", "counter", "replay", "self":
		default:
			t.Errorf("%s: source %q", d.Name, d.Source)
		}
	}
}

// TestEmittedNamesEqualDeclared drives emit with a synthetic outcome in
// both modes: the set of names the runner prints must be the set the
// manifest declares, with the declared units and the four result keys.
func TestEmittedNamesEqualDeclared(t *testing.T) {
	for _, trace := range []bool{false, true} {
		o := &outcome{attempted: 10, correct: 10, e2e: map[string]float64{}, layer: map[string]float64{}}
		var buf bytes.Buffer
		if code := emit(wTransit, runConfig{seed: 1, seconds: runSeconds, trace: trace}, o, &buf); code != 0 {
			t.Fatalf("trace=%v: exit %d", trace, code)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatal(err)
		}
		if got, want := sortedKeys(raw), []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
			t.Errorf("result keys %v, want %v", got, want)
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		want := e2eNames()
		if trace {
			want = layerNames()
		}
		got := sortedKeys(res.Metrics)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%v: emitted %v, declared %v", trace, got, want)
		}
		for name, mv := range res.Metrics {
			if mv.Unit != unitOf(name) {
				t.Errorf("%s: unit %q, declared %q", name, mv.Unit, unitOf(name))
			}
		}
	}
}

// TestGateFailsTheRun: a violation, or an operation that is neither
// correct nor an expected discard, must make the command exit non-zero.
func TestGateFailsTheRun(t *testing.T) {
	for _, o := range []*outcome{
		{attempted: 10, correct: 9},
		{attempted: 10, correct: 10, violations: []string{"conservation"}},
	} {
		o.e2e = map[string]float64{}
		var buf bytes.Buffer
		if code := emit(wEngine, runConfig{seed: 1, seconds: runSeconds}, o, &buf); code == 0 {
			t.Errorf("outcome %+v exited 0", o)
		}
	}
	ok := &outcome{attempted: 10, correct: 8, expectedDrops: 2, e2e: map[string]float64{}}
	var buf bytes.Buffer
	if code := emit(wEngine, runConfig{seed: 1, seconds: runSeconds}, ok, &buf); code != 0 {
		t.Error("expected and verified discards were counted as failures")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	d := e2eDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	a := metricSummary{Median: 100, Spread: 0.02}
	for _, tc := range []struct {
		b    metricSummary
		want string
	}{
		{metricSummary{Median: 95, Spread: 0.02}, "within-bound"},
		{metricSummary{Median: 85, Spread: 0.02}, "regressed"},
		{metricSummary{Median: 130, Spread: 0.02}, "within-bound"},
		{metricSummary{Median: 85, Spread: 0.20}, "unresolved"},
	} {
		if got := verdict(d, a, tc.b); got != tc.want {
			t.Errorf("b=%+v: %s, want %s", tc.b, got, tc.want)
		}
	}
	lower := e2eDecl{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	if got := verdict(lower, a, metricSummary{Median: 115, Spread: 0.01}); got != "regressed" {
		t.Errorf("lower-is-better rise of 15%%: %s", got)
	}
}
