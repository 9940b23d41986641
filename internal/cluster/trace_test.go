package cluster

import (
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
)

// The hotspot scenario's timeline must actually show the pathology the
// aggregate metrics compress away: a shifting hot shard carrying an
// outsized share of completions while the fabric sheds load over time.
func TestHotspotTimeline(t *testing.T) {
	srs := harness.RunSpecs([]harness.Spec{{
		Scenario: "cluster/hotspot",
		Duration: 300 * sim.Microsecond,
		Trace:    true,
	}}, 1)
	if srs[0].Err != nil {
		t.Fatal(srs[0].Err)
	}
	tr := srs[0].Result.Trials[0].Trace
	if tr == nil || len(tr.Runs) != 1 {
		t.Fatalf("traced hotspot trial carries %+v, want one run", tr)
	}
	run := tr.Runs[0]
	if len(run.Samples) < 10 {
		t.Fatalf("timeline has %d samples, want >= 10", len(run.Samples))
	}
	last := run.Samples[len(run.Samples)-1]
	if len(last.Shards) != 4 {
		t.Fatalf("sample carries %d shards, want 4", len(last.Shards))
	}
	// Cumulative counters never step backwards, and the run sheds.
	var prevDropped, prevCompleted int64
	for i, s := range run.Samples {
		if s.Dropped < prevDropped || s.Completed < prevCompleted {
			t.Fatalf("sample %d: cumulative counters regressed (%d/%d after %d/%d)",
				i, s.Dropped, s.Completed, prevDropped, prevCompleted)
		}
		prevDropped, prevCompleted = s.Dropped, s.Completed
	}
	if last.Dropped == 0 {
		t.Error("hotspot overload shed nothing over the whole window")
	}
	if run.Sheds != last.Dropped {
		t.Errorf("recorder sheds %d != final sample dropped %d", run.Sheds, last.Dropped)
	}
	// The hot shard's share: some interval must concentrate well above the
	// fair 1/4 split.
	maxShare := 0.0
	prev := run.Samples[0]
	for _, s := range run.Samples[1:] {
		dTotal := float64(s.Completed - prev.Completed)
		if dTotal > 0 {
			for i := range s.Shards {
				share := float64(s.Shards[i].Completed-prev.Shards[i].Completed) / dTotal
				if share > maxShare {
					maxShare = share
				}
			}
		}
		prev = s
	}
	if maxShare < 0.3 {
		t.Errorf("max per-interval shard share = %g, want > 0.3 (hotspot should concentrate)", maxShare)
	}
}

// Every traced run's timeline opens with a baseline sample at the measured
// window's first instant, before any measured op: the device gauges count
// from platform start, so the first interval must difference against this
// sample, not against zero.
func TestTimelineOpensWithBaseline(t *testing.T) {
	var specs []harness.Spec
	for _, name := range []string{
		"service/kv/pmemkv", "service/batch/point", "service/batch/sweep",
		"service/cache/point", "cluster/hotspot", "cluster/failover/point",
	} {
		specs = append(specs, harness.Spec{Scenario: name, Duration: 150 * sim.Microsecond, Trace: true})
	}
	for _, sr := range harness.RunSpecs(specs, 2) {
		if sr.Err != nil {
			t.Fatal(sr.Err)
		}
		for _, run := range sr.Result.Trials[0].Trace.Runs {
			if len(run.Samples) < 2 {
				t.Fatalf("%s [%s]: %d samples, want a baseline and at least one interval",
					sr.Result.Name, run.Label, len(run.Samples))
			}
			s := run.Samples[0]
			if s.TNS != 0 || s.Offered != 0 || s.Dropped != 0 || s.Completed != 0 {
				t.Errorf("%s [%s]: first sample t_ns=%d offered=%d dropped=%d completed=%d, want all 0",
					sr.Result.Name, run.Label, s.TNS, s.Offered, s.Dropped, s.Completed)
			}
		}
	}
}
