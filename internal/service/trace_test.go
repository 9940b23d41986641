package service

import (
	"bytes"
	"reflect"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
	"optanestudy/internal/telemetry"
)

func runTraced(t *testing.T, spec harness.Spec, parallel int) *harness.Result {
	t.Helper()
	srs := harness.RunSpecs([]harness.Spec{spec}, parallel)
	if srs[0].Err != nil {
		t.Fatal(srs[0].Err)
	}
	return srs[0].Result
}

// Past the saturation knee the dominant p99 component must be queue-wait,
// not backend service time: the backend is pinned busy, so every extra
// offered op waits in line. This is the phase breakdown's reason to exist —
// end-to-end p99 alone cannot say which segment blew up.
func TestPhaseBreakdownPastKnee(t *testing.T) {
	spec := harness.Spec{
		Scenario: "service/kv/pmemkv",
		Params:   map[string]string{"offered": "20000", "qcap": "64"},
		Threads:  4, Duration: 200 * sim.Microsecond, Seed: 7,
		Trace: true,
	}
	res := runTraced(t, spec, 1)
	tr := res.Trials[0].Trace
	if tr == nil || len(tr.Runs) != 1 {
		t.Fatalf("traced trial carries %+v, want one run", tr)
	}
	run := tr.Runs[0]
	qw, svc, total := run.Phase("queue_wait"), run.Phase("service"), run.Phase("total")
	if qw.Count == 0 || svc.Count == 0 {
		t.Fatalf("phase counts queue=%d service=%d, want both > 0", qw.Count, svc.Count)
	}
	if qw.P99NS <= svc.P99NS {
		t.Errorf("past the knee queue_wait p99 (%g ns) should exceed service p99 (%g ns)",
			qw.P99NS, svc.P99NS)
	}
	if qw.P99NS < 0.5*total.P99NS {
		t.Errorf("queue_wait p99 (%g ns) should dominate total p99 (%g ns)",
			qw.P99NS, total.P99NS)
	}
	// Overload also means sheds, and the phase metrics surface in the
	// trial's metric map.
	if run.Sheds == 0 {
		t.Error("expected sheds past the knee")
	}
	m := res.Trials[0].Metrics
	if m["phase_queue_wait_p99_ns"] != qw.P99NS {
		t.Errorf("metric phase_queue_wait_p99_ns = %g, want %g",
			m["phase_queue_wait_p99_ns"], qw.P99NS)
	}
}

// The trace stream must be byte-identical at any -parallel width: spans
// and samples derive only from sim time, and the harness emits entries in
// input order regardless of schedule.
func TestTraceParallelByteIdentical(t *testing.T) {
	mkSpecs := func() []harness.Spec {
		return []harness.Spec{
			{Scenario: "service/batch/point", Duration: 150 * sim.Microsecond, Trace: true},
			{Scenario: "service/kv/pmemkv", Duration: 150 * sim.Microsecond, Trace: true},
			{Scenario: "service/cache/point", Duration: 150 * sim.Microsecond, Trace: true},
		}
	}
	render := func(parallel int) []byte {
		var entries []telemetry.TraceEntry
		for _, sr := range harness.RunSpecs(mkSpecs(), parallel) {
			if sr.Err != nil {
				t.Fatal(sr.Err)
			}
			for ti := range sr.Result.Trials {
				if tr := sr.Result.Trials[ti].Trace; tr != nil {
					entries = append(entries, telemetry.TraceEntry{
						Scenario: sr.Result.Name, Trial: ti, Trace: tr,
					})
				}
			}
		}
		var buf bytes.Buffer
		if err := telemetry.WriteJSONL(&buf, entries); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, wide := render(1), render(8)
	if !bytes.Equal(serial, wide) {
		t.Fatal("trace stream differs between -parallel=1 and -parallel=8")
	}
}

// Turning tracing on must not move a single untraced metric: the recorder
// only observes. Every key the untraced run emits must appear unchanged in
// the traced run (which adds phase_* keys on top). The table pins both
// span shapes of the one worker loop: group commits at depth 8 carry a
// batch id and a batch_wait phase, while depth 1 carries neither and books
// each logged PUT's fused Append wholly to persist.
func TestTracedResultsMatchUntraced(t *testing.T) {
	for _, tc := range []struct {
		name    string
		params  map[string]string
		batched bool
	}{
		{"depth8", nil, true},
		{"depth1", map[string]string{"batch": "1"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := harness.Spec{
				Scenario: "service/batch/point",
				Params:   tc.params,
				Duration: 150 * sim.Microsecond,
			}
			off := runTraced(t, spec, 1)
			spec.Trace = true
			on := runTraced(t, spec, 1)
			mOff, mOn := off.Trials[0].Metrics, on.Trials[0].Metrics
			for k, v := range mOff {
				if mOn[k] != v {
					t.Errorf("metric %s moved under tracing: %g -> %g", k, v, mOn[k])
				}
			}
			if off.Trials[0].Ops != on.Trials[0].Ops {
				t.Errorf("ops moved under tracing: %d -> %d", off.Trials[0].Ops, on.Trials[0].Ops)
			}
			if !reflect.DeepEqual(off.Trials[0].Latency.Quantiles([]float64{0.5, 0.99}),
				on.Trials[0].Latency.Quantiles([]float64{0.5, 0.99})) {
				t.Error("latency distribution moved under tracing")
			}
			if on.Trials[0].Trace == nil || off.Trials[0].Trace != nil {
				t.Error("trace presence does not track the Trace flag")
			}
			// Both depths journal logged PUTs, so both record a persist
			// phase: the group-commit fence, or the Append's own fence.
			run := on.Trials[0].Trace.Runs[0]
			if ps := run.Phase("persist"); ps.Count == 0 {
				t.Error("logged run recorded no persist phase")
			}
			var withBatch int
			for _, s := range run.Slowest {
				if s.Batch > 0 {
					withBatch++
				}
			}
			bw := run.Phase("batch_wait").Count
			if tc.batched {
				if bw == 0 {
					t.Error("batched run recorded no batch_wait phase")
				}
				if withBatch == 0 {
					t.Error("no slow op carries a batch id on the batched path")
				}
				return
			}
			if bw != 0 {
				t.Errorf("depth-1 run recorded %d batch_wait samples, want none", bw)
			}
			if withBatch != 0 {
				t.Errorf("%d slow ops carry a batch id at depth 1, want none", withBatch)
			}
		})
	}
}
