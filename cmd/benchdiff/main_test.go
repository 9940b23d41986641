package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeEnvelope writes a one-scenario bench file whose p50_ns is p50 and
// whose metrics map is metrics, and returns its path.
func writeEnvelope(t *testing.T, name, schema string, p50 float64, metrics map[string]float64) string {
	t.Helper()
	env := map[string]any{
		"schema": schema,
		"results": []map[string]any{{
			"name": "svc/point", "throughput_gbs": 1.5, "ops_per_sec": 2e6,
			"p50_ns": p50, "p99_ns": 900, "metrics": metrics,
		}},
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runDiff runs benchdiff over argv and returns its exit code and output.
func runDiff(argv ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(argv, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// A metric present on one side only, or moving from 0, has no finite
// relative delta: the table prints n/a and JSON encodes rel as null, and
// both flag it.
func TestOneSidedMetric(t *testing.T) {
	oldPath := writeEnvelope(t, "old.json", benchSchema, 100, map[string]float64{"hits": 0, "ewr": 0.9})
	newPath := writeEnvelope(t, "new.json", benchSchema, 100, map[string]float64{"hits": 3, "ewr": 0.9, "gated": 7})

	code, out, errOut := runDiff(oldPath, newPath)
	if code != 0 {
		t.Fatalf("table: exit %d, stderr %q", code, errOut)
	}
	for _, metric := range []string{"gated", "hits"} {
		if !strings.Contains(out, metric) || !strings.Contains(out, "n/a !") {
			t.Errorf("table does not flag %s with n/a:\n%s", metric, out)
		}
	}
	if !strings.Contains(out, "# 7 metrics compared, 2 beyond 5% threshold") {
		t.Errorf("table summary wrong:\n%s", out)
	}

	code, out, errOut = runDiff("-format", "json", "-all", oldPath, newPath)
	if code != 0 {
		t.Fatalf("json: exit %d, stderr %q", code, errOut)
	}
	var got struct {
		Compared, Flagged int
		Deltas            []struct {
			Metric  string
			Rel     *float64
			Flagged bool
		}
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, out)
	}
	if got.Compared != 7 || got.Flagged != 2 || len(got.Deltas) != 7 {
		t.Fatalf("json: compared %d, flagged %d, %d deltas; want 7, 2, 7", got.Compared, got.Flagged, len(got.Deltas))
	}
	for _, d := range got.Deltas {
		oneSided := d.Metric == "gated" || d.Metric == "hits"
		if (d.Rel == nil) != oneSided || d.Flagged != oneSided {
			t.Errorf("json delta %s: rel %v flagged %v", d.Metric, d.Rel, d.Flagged)
		}
	}
	if !strings.Contains(out, `"rel": null`) {
		t.Errorf("json does not encode the missing delta as null:\n%s", out)
	}
}

// -fail turns a flagged metric into exit 1 and nothing else does; a delta
// exactly at -threshold is not flagged.
func TestFailAndThreshold(t *testing.T) {
	base := writeEnvelope(t, "base.json", benchSchema, 100, map[string]float64{"ewr": 0.9})
	same := writeEnvelope(t, "same.json", benchSchema, 100, map[string]float64{"ewr": 0.9})
	atBound := writeEnvelope(t, "bound.json", benchSchema, 105, map[string]float64{"ewr": 0.9})
	beyond := writeEnvelope(t, "beyond.json", benchSchema, 105.5, map[string]float64{"ewr": 0.9})
	for _, tc := range []struct {
		name    string
		argv    []string
		code    int
		flagged string
	}{
		{"identical report-only", []string{base, same}, 0, "0 beyond"},
		{"identical with -fail", []string{"-fail", base, same}, 0, "0 beyond"},
		{"at the threshold", []string{"-fail", "-threshold", "0.05", base, atBound}, 0, "0 beyond"},
		{"beyond, report-only", []string{"-threshold", "0.05", base, beyond}, 0, "1 beyond"},
		{"beyond with -fail", []string{"-fail", "-threshold", "0.05", base, beyond}, 1, "1 beyond"},
	} {
		code, out, errOut := runDiff(tc.argv...)
		if code != tc.code || !strings.Contains(out, tc.flagged) {
			t.Errorf("%s: exit %d (want %d), stderr %q, output:\n%s", tc.name, code, tc.code, errOut, out)
		}
	}
}

func TestUnknownSchemaExits2(t *testing.T) {
	good := writeEnvelope(t, "good.json", benchSchema, 100, nil)
	bad := writeEnvelope(t, "bad.json", "optanestudy-bench/v0", 100, nil)
	code, _, errOut := runDiff(good, bad)
	if code != 2 || !strings.Contains(errOut, "unknown schema") {
		t.Errorf("exit %d, stderr %q; want 2 naming the unknown schema", code, errOut)
	}
}
