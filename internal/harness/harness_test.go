package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeTrial is a deterministic scenario result used across the tests.
func fakeTrial(spec Spec) (Trial, error) {
	hist := stats.NewHistogram()
	for _, v := range []float64{100, 200, 300, 400} {
		hist.Add(v)
	}
	return Trial{
		Bytes:   1 << 20,
		Ops:     4096,
		Sim:     100 * sim.Microsecond,
		Metrics: map[string]float64{"ewr": 0.5, "seed": float64(spec.Seed)},
		Latency: hist,
	}, nil
}

func init() {
	Register(Scenario{
		Name: "test/golden",
		Doc:  "fixed-output scenario for harness tests",
		Defaults: Defaults{
			Threads: 2, Duration: 200 * sim.Microsecond, Seed: 7,
			Params: map[string]string{"knob": "default"},
		},
		Run: fakeTrial,
	})
}

func TestRegistry(t *testing.T) {
	if _, ok := Lookup("test/golden"); !ok {
		t.Fatal("registered scenario not found")
	}
	if _, ok := Lookup("test/nope"); ok {
		t.Fatal("lookup invented a scenario")
	}
	names := Names()
	found := false
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
	for _, n := range names {
		if n == "test/golden" {
			found = true
		}
	}
	if !found {
		t.Error("Names misses test/golden")
	}

	scs, err := Match("test/*")
	if err != nil || len(scs) == 0 {
		t.Fatalf("Match(test/*) = %v, %v", scs, err)
	}
	if _, err := Match("nomatch/*"); err == nil {
		t.Error("Match must fail on a pattern matching nothing")
	}
	if _, err := Match("[bad"); err == nil {
		t.Error("Match must fail on a malformed pattern")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, sc Scenario) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(sc)
	}
	mustPanic("empty name", Scenario{Run: fakeTrial})
	mustPanic("nil run", Scenario{Name: "test/nil-run"})
	mustPanic("duplicate", Scenario{Name: "test/golden", Run: fakeTrial})
}

func TestDriverResolvesDefaultsAndAggregates(t *testing.T) {
	res, err := Run(Spec{Scenario: "test/golden", Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Threads != 2 || res.Spec.Duration != 200*sim.Microsecond || res.Spec.Seed != 7 {
		t.Errorf("defaults not applied: %+v", res.Spec)
	}
	if res.Spec.Params["knob"] != "default" {
		t.Errorf("default params not merged: %v", res.Spec.Params)
	}
	if len(res.Trials) != 3 {
		t.Fatalf("trials = %d, want 3", len(res.Trials))
	}
	// Seeds derive from the resolved spec identity and trial index: every
	// trial gets a distinct seed, and rerunning the same spec reproduces
	// the same seeds exactly.
	if res.Trials[0].Metrics["seed"] == res.Trials[1].Metrics["seed"] {
		t.Error("trials 0 and 1 share a seed")
	}
	again, err := Run(Spec{Scenario: "test/golden", Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Trials {
		if res.Trials[i].Metrics["seed"] != again.Trials[i].Metrics["seed"] {
			t.Errorf("trial %d seed not reproducible across runs", i)
		}
	}
	// A different resolved identity (here: params) yields a different
	// seed stream, so sweep points never share randomness by accident.
	other, err := Run(Spec{Scenario: "test/golden", Params: map[string]string{"knob": "turned"}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Trials[0].Metrics["seed"] == res.Trials[0].Metrics["seed"] {
		t.Error("different params produced the same trial seed")
	}
	// GBs derived from Bytes/Sim: 1 MiB over 100 us.
	wantGBs := float64(1<<20) / (100e-6) / 1e9
	if got := res.Trials[0].GBs; got != wantGBs {
		t.Errorf("derived GBs = %v, want %v", got, wantGBs)
	}
	if res.GBs.Mean != wantGBs || res.GBs.Std != 0 {
		t.Errorf("GBs agg = %+v", res.GBs)
	}
	if res.P50NS == 0 || res.P99NS < res.P50NS {
		t.Errorf("latency percentiles p50=%v p99=%v", res.P50NS, res.P99NS)
	}
	if res.SimTotal != 300*sim.Microsecond {
		t.Errorf("SimTotal = %v", res.SimTotal)
	}
}

func TestDriverExplicitOverridesWin(t *testing.T) {
	res, err := Run(Spec{
		Scenario: "test/golden",
		Threads:  9,
		Seed:     100,
		Params:   map[string]string{"knob": "turned"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Threads != 9 || res.Spec.Seed != 100 {
		t.Errorf("overrides lost: %+v", res.Spec)
	}
	if res.Spec.Params["knob"] != "turned" {
		t.Errorf("param override lost: %v", res.Spec.Params)
	}
	if res.Spec.Trials != 1 {
		t.Errorf("trials default = %d, want 1", res.Spec.Trials)
	}
}

func TestDriverUnknownScenario(t *testing.T) {
	if _, err := Run(Spec{Scenario: "test/absent"}); err == nil {
		t.Fatal("Run must fail on an unknown scenario")
	}
}

func TestParamReader(t *testing.T) {
	r := NewParamReader(map[string]string{
		"s": "hello", "i": "42", "b": "true", "f": "2.5",
	})
	if r.Str("s", "x") != "hello" || r.Int("i", 0) != 42 ||
		!r.Bool("b", false) || r.Float("f", 0) != 2.5 {
		t.Error("typed getters broken")
	}
	if r.Int("missing", 7) != 7 {
		t.Error("default not returned for absent key")
	}
	if err := r.Err(); err != nil {
		t.Errorf("unexpected err: %v", err)
	}

	bad := NewParamReader(map[string]string{"i": "notanumber"})
	bad.Int("i", 0)
	if bad.Err() == nil {
		t.Error("parse failure not reported")
	}

	unread := NewParamReader(map[string]string{"typo": "1"})
	if err := unread.Err(); err == nil || !strings.Contains(err.Error(), "typo") {
		t.Errorf("unread params not reported: %v", err)
	}
}

func TestJSONGolden(t *testing.T) {
	res, err := Run(Spec{Scenario: "test/golden", Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (JSONReporter{Deterministic: true}).Report(&buf, []*Result{res}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON schema drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestReporters(t *testing.T) {
	res, err := Run(Spec{Scenario: "test/golden"})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"table", "csv", "json"} {
		rep, err := NewReporter(format, false)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Report(&buf, []*Result{res}); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !strings.Contains(buf.String(), "test/golden") {
			t.Errorf("%s output misses scenario name:\n%s", format, buf.String())
		}
	}
	if _, err := NewReporter("xml", false); err == nil {
		t.Error("NewReporter must reject unknown formats")
	}
}
