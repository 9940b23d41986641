package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"optanestudy/internal/telemetry"
)

// dimmCounts is one DIMM's cumulative device counters at a sample instant.
type dimmCounts struct{ read, write, media, hits, misses, stall float64 }

// sample builds a timeline instant over two probed DIMMs, s0c0 and s0c1,
// in devstat.AddProbes' gauge order.
func sample(tNS, offered, completed int64, c0, c1 dimmCounts) telemetry.Sample {
	s := telemetry.Sample{TNS: tNS, Offered: offered, Completed: completed}
	for i, c := range []dimmCounts{c0, c1} {
		for _, g := range []struct {
			name string
			v    float64
		}{
			{"xp_ctrl_read_bytes", c.read}, {"xp_ctrl_write_bytes", c.write},
			{"xp_media_write_bytes", c.media}, {"xp_buffer_hits", c.hits},
			{"xp_buffer_misses", c.misses}, {"xp_wpq_stall_ns", c.stall},
		} {
			s.Gauges = append(s.Gauges, telemetry.Gauge{Name: fmt.Sprintf("%s_s0c%d", g.name, i), Value: g.v})
		}
	}
	return s
}

// writeTrace writes a one-run trace: a baseline at t=0 whose device
// counters already hold preload traffic, then four 1 µs intervals in which
// only s0c0 moves bytes, plus a warmup marker and a marker inside the
// second interval.
func writeTrace(t *testing.T) string {
	t.Helper()
	idle := dimmCounts{}
	run := &telemetry.Run{
		Events: []telemetry.Event{{TNS: -100, Name: "warm", Shard: 0}, {TNS: 1500, Name: "crash", Shard: 1}},
		Samples: []telemetry.Sample{
			sample(0, 0, 0, dimmCounts{5000, 9000, 9000, 40, 40, 100}, idle),
			// Interval 0: bw 3000 B / 1000 ns, wr 2, media 1, EWR 2, hits 3 of 4, stall 0.5.
			sample(1000, 10, 8, dimmCounts{6000, 11000, 10000, 43, 41, 600}, idle),
			// Interval 1: bw 1, wr 1, media 0.5, EWR 2, hits 1 of 2, stall 0.
			sample(2000, 20, 18, dimmCounts{6000, 12000, 10500, 44, 42, 600}, idle),
			// Interval 2: bw 4, wr 4, media 4, EWR 1, no buffer accesses, stall 2.
			sample(3000, 30, 28, dimmCounts{6000, 16000, 14500, 44, 42, 2600}, idle),
			// Interval 3: bw 0.5, wr 0, EWR 0, hits 0 of 1, stall 0.
			sample(4000, 40, 38, dimmCounts{6500, 16000, 14500, 44, 43, 2600}, idle),
		},
	}
	var buf bytes.Buffer
	entries := []telemetry.TraceEntry{{Scenario: "x/run", Trace: &telemetry.Trace{Runs: []*telemetry.Run{run}}}}
	if err := telemetry.WriteJSONL(&buf, entries); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// output runs tracereport and returns what it printed, failing the test on
// a non-zero exit.
func output(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("tracereport %v: exit %d, stderr: %s", args, code, errOut.String())
	}
	return out.String()
}

// dimmRows parses the dimms view's table rows, keyed by t_us.
func dimmRows(t *testing.T, out string) map[string][]string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if want := "== x/run trial 0  samples=5 dimms=2 active=1"; lines[0] != want {
		t.Fatalf("title = %q, want %q", lines[0], want)
	}
	rows := map[string][]string{}
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if f[1] != "s0c0" {
			t.Errorf("row for %s, want only the active s0c0: %q", f[1], line)
		}
		rows[f[0]] = f
	}
	return rows
}

// timelineRows parses the timeline view's CSV into its header and rows
// keyed by t_us.
func timelineRows(t *testing.T, out string) ([]string, map[string][]string) {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(strings.TrimPrefix(out, "# x/run trial 0\n"))).ReadAll()
	if err != nil {
		t.Fatalf("timeline is not CSV: %v\n%s", err, out)
	}
	rows := map[string][]string{}
	for _, r := range recs[1:] {
		rows[r[0]] = r
	}
	return recs[0], rows
}

func TestDIMMsView(t *testing.T) {
	rows := dimmRows(t, output(t, "-view", "dimms", writeTrace(t)))
	want := map[string][]string{
		"1.000": {"1.000", "s0c0", "3", "2", "1", "2", "0.75", "0.5"},
		"2.000": {"2.000", "s0c0", "1", "1", "0.5", "2", "0.5", "0"},
		"3.000": {"3.000", "s0c0", "4", "4", "4", "1", "0", "2"},
		"4.000": {"4.000", "s0c0", "0.5", "0", "0", "0", "0", "0"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("dimms rows = %v, want %v", rows, want)
	}
}

func TestTimelineAgreesWithDIMMs(t *testing.T) {
	path := writeTrace(t)
	dimms := dimmRows(t, output(t, "-view", "dimms", path))
	header, rows := timelineRows(t, output(t, "-view", "timeline", path))
	wantHeader := []string{"t_us", "offered_kops", "completed_kops", "shed_frac", "qdepth", "qdepth_mean",
		"ewr_s0", "ewr_s0c0", "bw_s0c0", "stall_s0c0", "events"}
	if !reflect.DeepEqual(header, wantHeader) {
		t.Fatalf("timeline columns = %v, want %v", header, wantHeader)
	}
	if len(rows) != len(dimms) {
		t.Fatalf("timeline has %d rows, dimms view %d", len(rows), len(dimms))
	}
	for tUS, d := range dimms {
		r := rows[tUS]
		// ewr, bw and stall: timeline columns 7-9, dimms fields 5, 2 and 7.
		if got, want := r[7:10], []string{d[5], d[2], d[7]}; !reflect.DeepEqual(got, want) {
			t.Errorf("t=%s: timeline s0c0 ewr/bw/stall = %v, dimms view %v", tUS, got, want)
		}
		if r[6] != d[5] {
			t.Errorf("t=%s: socket EWR %s, want the one DIMM's %s", tUS, r[6], d[5])
		}
	}
	if got := rows["1.000"][10]; got != "warm:s0" {
		t.Errorf("first row events = %q, want the warmup marker", got)
	}
	if got := rows["2.000"][10]; got != "crash:s1" {
		t.Errorf("second row events = %q, want crash:s1", got)
	}
}

func TestEveryRendersEveryNthInterval(t *testing.T) {
	path := writeTrace(t)
	all := dimmRows(t, output(t, "-view", "dimms", path))
	dimms := dimmRows(t, output(t, "-view", "dimms", "-every", "2", path))
	if want := map[string][]string{"1.000": all["1.000"], "3.000": all["3.000"]}; !reflect.DeepEqual(dimms, want) {
		t.Errorf("dimms -every 2 rows = %v, want intervals 0 and 2: %v", dimms, want)
	}
	_, rows := timelineRows(t, output(t, "-view", "timeline", "-every", "2", path))
	if len(rows) != 2 || rows["1.000"] == nil || rows["3.000"] == nil {
		t.Fatalf("timeline -every 2 rows = %v, want t_us 1.000 and 3.000", rows)
	}
	// The crash fell in the skipped second interval; it lands on the next
	// rendered row.
	if got := rows["3.000"][10]; got != "crash:s1" {
		t.Errorf("row 3.000 events = %q, want the skipped interval's crash:s1", got)
	}
}

func TestUnknownViewExits2(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-view", "tables", writeTrace(t)}, &out, &errOut); code != 2 {
		t.Errorf("unknown -view: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `"tables"`) {
		t.Errorf("stderr misses the unknown view: %s", errOut.String())
	}
}
