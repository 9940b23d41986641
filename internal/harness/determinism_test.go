package harness_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"optanestudy/internal/harness"
	_ "optanestudy/internal/lattester"
	_ "optanestudy/internal/lsmkv"
	_ "optanestudy/internal/pmemkv"
	"optanestudy/internal/sim"
)

// TestDeterministicJSON asserts the contract the neutrality guard
// (ci/sweep_baseline.json) relies on: two harness runs of the same Spec
// (same seed) against the simulated platform produce byte-identical
// deterministic JSON.
func TestDeterministicJSON(t *testing.T) {
	render := func() []byte {
		res, err := harness.Run(harness.Spec{
			Scenario: "lattester/seq-ntstore",
			Threads:  2,
			Duration: 30 * sim.Microsecond,
			Trials:   2,
			Seed:     42,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := (harness.JSONReporter{Deterministic: true}).Report(&buf, []*harness.Result{res}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same spec, different JSON:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if !json.Valid(a) {
		t.Fatal("output is not valid JSON")
	}
}

// TestParallelByteIdentical is the parallel-pipeline contract: the full
// deterministic JSON for a mixed batch of scenarios — microbenchmark
// kernels, the LSM SET bench, and PMemKV, with multiple trials each — must
// be byte-identical between a serial run and an 8-wide worker pool.
func TestParallelByteIdentical(t *testing.T) {
	scenarios := []string{
		"lattester/seq-ntstore",
		"lattester/rand-read",
		"lsmkv/set-walflex",
		"pmemkv/overwrite",
	}
	render := func(parallel string) []byte {
		var out, errOut bytes.Buffer
		args := append([]string{
			"-format=json", "-deterministic", "-duration=20", "-ops=200",
			"-trials=2", "-parallel=" + parallel,
		}, scenarios...)
		code := harness.CLIMain(args, &out, &errOut)
		if code != 0 {
			t.Fatalf("-parallel=%s: exit %d, stderr: %s", parallel, code, errOut.String())
		}
		return out.Bytes()
	}
	serial, parallel := render("1"), render("8")
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel run diverged from serial:\n--- -parallel=1 ---\n%s\n--- -parallel=8 ---\n%s",
			serial, parallel)
	}
	if !json.Valid(serial) {
		t.Fatal("output is not valid JSON")
	}
}

// TestRunSpecsMatchesRun checks the batch scheduler returns, spec by spec,
// exactly what the single-spec driver produces.
func TestRunSpecsMatchesRun(t *testing.T) {
	specs := []harness.Spec{
		{Scenario: "lattester/seq-ntstore", Threads: 2, Duration: 20 * sim.Microsecond, Trials: 2},
		{Scenario: "lattester/rand-read", Duration: 20 * sim.Microsecond},
	}
	batch := harness.RunSpecs(specs, 4)
	for i, spec := range specs {
		want, err := harness.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Err != nil {
			t.Fatalf("spec %d: %v", i, batch[i].Err)
		}
		got := batch[i].Result
		if got.Name != want.Name || len(got.Trials) != len(want.Trials) {
			t.Fatalf("spec %d: result shape differs: %+v vs %+v", i, got, want)
		}
		for j := range got.Trials {
			if got.Trials[j].Bytes != want.Trials[j].Bytes || got.Trials[j].Sim != want.Trials[j].Sim {
				t.Errorf("spec %d trial %d differs: %+v vs %+v", i, j, got.Trials[j], want.Trials[j])
			}
		}
	}
}

// TestRunSpecsIsolatesFailures checks one failing spec neither aborts the
// batch nor perturbs its siblings' positions.
func TestRunSpecsIsolatesFailures(t *testing.T) {
	specs := []harness.Spec{
		{Scenario: "lattester/seq-read", Duration: 10 * sim.Microsecond},
		{Scenario: "no/such-scenario"},
		{Scenario: "lattester/rand-read", Duration: 10 * sim.Microsecond,
			Params: map[string]string{"bogus": "1"}},
		{Scenario: "lattester/seq-ntstore", Duration: 10 * sim.Microsecond},
	}
	out := harness.RunSpecs(specs, 8)
	if out[0].Err != nil || out[0].Result == nil || out[0].Result.Name != "lattester/seq-read" {
		t.Errorf("spec 0: %+v", out[0])
	}
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "no/such-scenario") {
		t.Errorf("spec 1 error = %v", out[1].Err)
	}
	if out[2].Err == nil || !strings.Contains(out[2].Err.Error(), "bogus") {
		t.Errorf("spec 2 error = %v", out[2].Err)
	}
	if out[3].Err != nil || out[3].Result == nil || out[3].Result.Name != "lattester/seq-ntstore" {
		t.Errorf("spec 3: %+v", out[3])
	}
}

// TestCLIJSONRoundTrip drives the shared CLI end to end: run a scenario,
// emit JSON, parse it back, and check the schema headline fields.
func TestCLIJSONRoundTrip(t *testing.T) {
	var out, errOut bytes.Buffer
	code := harness.CLIMain(
		[]string{"-format=json", "-duration=20", "-deterministic", "lattester/seq-ntstore"},
		&out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var env struct {
		Schema  string `json:"schema"`
		Results []struct {
			Name          string  `json:"name"`
			ThroughputGBs float64 `json:"throughput_gbs"`
			SimNS         int64   `json:"sim_ns"`
			WallNS        int64   `json:"wall_ns"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		t.Fatalf("CLI JSON does not parse: %v\n%s", err, out.String())
	}
	if env.Schema != harness.SchemaVersion {
		t.Errorf("schema = %q, want %q", env.Schema, harness.SchemaVersion)
	}
	if len(env.Results) != 1 || env.Results[0].Name != "lattester/seq-ntstore" {
		t.Fatalf("results = %+v", env.Results)
	}
	if env.Results[0].ThroughputGBs <= 0 || env.Results[0].SimNS <= 0 {
		t.Errorf("degenerate result: %+v", env.Results[0])
	}
	if env.Results[0].WallNS != 0 {
		t.Error("-deterministic must zero wall_ns")
	}
}

// TestCLIList checks -list output and glob filtering.
func TestCLIList(t *testing.T) {
	var out, errOut bytes.Buffer
	code := harness.CLIMain([]string{"-list", "lattester/seq-*"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	listing := out.String()
	if !strings.Contains(listing, "lattester/seq-read") || strings.Contains(listing, "lattester/rand-read") {
		t.Errorf("glob filtering broken:\n%s", listing)
	}
}

// TestCLIListAll checks that no scenario argument selects exactly the
// registered scenarios, in registry order.
func TestCLIListAll(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := harness.CLIMain([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	if want := harness.Names(); strings.Join(listed, " ") != strings.Join(want, " ") {
		t.Errorf("-list with no argument printed %v, want %v", listed, want)
	}
}

// TestCLIBadScenario checks the error path exit code.
func TestCLIBadScenario(t *testing.T) {
	var out, errOut bytes.Buffer
	code := harness.CLIMain([]string{"no/such-scenario"}, &out, &errOut)
	if code == 0 {
		t.Fatal("unknown scenario must not exit 0")
	}
	if !strings.Contains(errOut.String(), "no/such-scenario") {
		t.Errorf("stderr misses the offending name: %s", errOut.String())
	}
}

// TestUnknownParamRejected checks that a typo'd -p key surfaces as an
// error instead of being silently ignored.
func TestUnknownParamRejected(t *testing.T) {
	_, err := harness.Run(harness.Spec{
		Scenario: "lattester/seq-read",
		Duration: 10 * sim.Microsecond,
		Params:   map[string]string{"patern": "rand"},
	})
	if err == nil || !strings.Contains(err.Error(), "patern") {
		t.Errorf("typo'd param not rejected: %v", err)
	}
}
