package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks the
// program against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// units maps metric name to unit.
func units(ms map[string]metric) map[string]string {
	out := map[string]string{}
	for k, v := range ms {
		out[k] = v.Unit
	}
	return out
}

func declared(list []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func sameSet(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for k, u := range want {
		if gu, ok := got[k]; !ok {
			t.Errorf("%s: metric %s missing", what, k)
		} else if gu != u {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", what, k, gu, u)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: metric %s printed but not declared in BENCHMARK.json", what, k)
		}
	}
}

// TestMetricSets runs every workload at tiny sizes, untraced and traced,
// and checks that each prints exactly the metrics BENCHMARK.json declares,
// with their units, and a parseable result line.
func TestMetricSets(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); got != strings.Join(names, "|") {
		t.Fatalf("workloads %s, BENCHMARK.json declares %v", got, names)
	}
	for _, name := range names {
		w := workloads[name]
		res, err := measure(w, 1, tinySizes, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, name+" untraced", units(res.metrics), declared(bj.EndToEnd))
		for k, m := range res.metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, k, m.Value)
			}
		}
		checkResultLine(t, res, name)
		tr, err := traced(w, 1, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, name+" traced", units(tr.metrics), declared(bj.PerLayer))
		checkResultLine(t, tr, name)
	}
}

// checkResultLine prints the result and checks the last line is the
// contract's JSON object.
func checkResultLine(t *testing.T, res *result, name string) {
	t.Helper()
	var buf bytes.Buffer
	res.print(&buf, name, 1)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", name, err)
	}
	if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
		t.Errorf("%s: result keys %v", name, out)
	}
	if res.attempted < 1 {
		t.Errorf("%s: attempted %d", name, res.attempted)
	}
}

// TestSeedChangesDigest checks that the seed reaches the simulated
// outputs of every workload while leaving the metric set alone.
func TestSeedChangesDigest(t *testing.T) {
	for _, name := range []string{"device", "serve-write", "serve-read"} {
		w := workloads[name]
		a, b := newPass(1, tinySizes, false), newPass(2, tinySizes, false)
		w.pass(a)
		w.pass(b)
		if a.digest() == b.digest() {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", name, a.digest())
		}
		if len(a.outs) != len(b.outs) {
			t.Errorf("%s: seed changed the run count: %d vs %d", name, len(a.outs), len(b.outs))
		}
		ra, err := measure(w, 1, tinySizes, 0)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := measure(w, 2, tinySizes, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, name+" seed 2 vs seed 1", units(rb.metrics), units(ra.metrics))
	}
}

// TestTracedMatchesUntraced checks that attaching the recorder, the
// devstat windows and the runtime/metrics reads leaves every simulated
// output unchanged.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range []string{"device", "serve-write", "serve-read"} {
		w := workloads[name]
		ref, tr := newPass(3, tinySizes, false), newPass(3, tinySizes, true)
		w.pass(ref)
		w.pass(tr)
		if ref.digest() != tr.digest() {
			for i := range ref.outs {
				if i < len(tr.outs) && ref.outs[i] != tr.outs[i] {
					t.Errorf("%s run %d:\n  untraced %s\n  traced   %s", name, i, ref.outs[i], tr.outs[i])
				}
			}
			t.Errorf("%s: traced digest %s != untraced %s", name, tr.digest(), ref.digest())
		}
		if len(tr.trace) == 0 {
			t.Errorf("%s: traced pass recorded no trace runs", name)
		}
	}
}

// TestFullSizeGrids pins the invariants the full-size workloads rely on.
func TestFullSizeGrids(t *testing.T) {
	for _, sz := range []*sizes{fullSizes, tinySizes} {
		for _, g := range [][]float64{sz.writeGrid, sz.readGrid} {
			if pointAt(curveOf(g), headlineKops).kops != headlineKops {
				t.Errorf("grid %v lacks the headline load %d kops", g, headlineKops)
			}
		}
		for _, th := range []int{1, 4, 6, 24} {
			found := false
			for _, x := range sz.threads {
				found = found || x == th
			}
			if !found {
				t.Errorf("thread grid %v lacks %d (a fidelity point needs it)", sz.threads, th)
			}
		}
	}
}

func curveOf(grid []float64) []curvePoint {
	var c []curvePoint
	for _, k := range grid {
		c = append(c, curvePoint{kops: k})
	}
	return c
}
