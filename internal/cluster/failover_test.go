package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/service"
	"optanestudy/internal/sim"
)

// failoverPointParams is the cluster/failover/point preset, spelled out so
// the tests control every key regardless of how spec defaults merge.
func failoverPointParams() map[string]string {
	return map[string]string{
		"policy": PolicyLocalPacked, "shards": "2", "putlog": "1",
		"replicate": "1", "fault": "crash",
		"faultshard": "0", "faultat": "0.4", "detect": "2000",
		"get": "0.5", "put": "0.5", "scan": "0",
		"offered": "8000", "qcap": "64",
	}
}

// TestFailoverShapeAndRecovery pins the failover story's shape: the crash
// shows up as exactly one failover with a real recovery window (promotion
// takes at least the detection delay, catch-up finishes inside the run),
// the p99 measured inside that window dwarfs the steady-state p99 of the
// same replicated fabric, and synchronous shipping means the promotion
// loses nothing — every acked write replays from the shipped log.
func TestFailoverShapeAndRecovery(t *testing.T) {
	const durUS = 150
	run := func(params map[string]string) map[string]float64 {
		res, err := harness.Run(harness.Spec{
			Scenario: "cluster/failover/point",
			Threads:  4, Duration: durUS * sim.Microsecond, Seed: 58,
			Params: params,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Trials[0].Metrics
	}
	faulted := run(failoverPointParams())
	steady := failoverPointParams()
	steady["fault"] = "" // same replicated fabric, no crash
	base := run(steady)

	if got := faulted["crashes"]; got != 1 {
		t.Fatalf("crashes = %g, want exactly 1", got)
	}
	if got := faulted["failovers"]; got != 1 {
		t.Errorf("failovers = %g, want 1", got)
	}
	if p := faulted["promote_ns"]; p < 2000 {
		t.Errorf("promote_ns = %g, want at least the 2000 ns detection delay", p)
	}
	// Bounded catch-up: the window closes (recovery_ns set) and does so
	// inside the run — an unrecovered crash would leave it at 0.
	if r := faulted["recovery_ns"]; r <= faulted["promote_ns"] || r >= durUS*1000 {
		t.Errorf("recovery_ns = %g, want inside (promote_ns=%g, run=%d ns)",
			r, faulted["promote_ns"], durUS*1000)
	}
	// The during-failover tail must dwarf the steady-state tail of the
	// identical replicated topology.
	if fp, sp := faulted["failover_p99_ns"], base["p99_ns"]; fp < 10*sp || faulted["failover_window_ops"] == 0 {
		t.Errorf("failover-window p99 %g ns over %g ops should dwarf steady-state p99 %g ns",
			fp, faulted["failover_window_ops"], sp)
	}
	// Synchronous shipping: the promotion replays acked writes and loses
	// none of them.
	if faulted["replay_recs"] == 0 || faulted["lost_recs"] != 0 {
		t.Errorf("replayed %g / lost %g records, want a real replay with zero loss",
			faulted["replay_recs"], faulted["lost_recs"])
	}
	// The steady run must not leak fault metrics (the gate contract).
	for _, k := range []string{"crashes", "recovery_ns", "failover_p99_ns", "failover_shed_ops"} {
		if _, ok := base[k]; ok {
			t.Errorf("fault-free run emitted %s", k)
		}
	}
}

// TestFailoverSweepFaultFreeLegNeutral pins the grid-leg identity
// contract, mirroring the batch/cache leg tests: the "none" leg of a
// faultgrid sweep injects no fault params, so its curve must reproduce a
// sweep that never heard of faults — same derived seeds, same numbers —
// while the crash leg, run by the sweep scenario itself (which adds the
// standby a crash fails over to), is a genuinely different
// recovery-under-load curve.
func TestFailoverSweepFaultFreeLegNeutral(t *testing.T) {
	const durUS = 150
	base := map[string]string{
		"policy": PolicyLocalPacked, "shards": "2", "putlog": "1",
		"get": "0.5", "put": "0.5", "scan": "0",
	}
	run := func(params map[string]string) service.Curve {
		curve, err := service.RunSweep(service.SweepConfig{
			Scenario: "cluster/point", Params: params,
			Threads: 4, Duration: durUS * sim.Microsecond, Seed: 58,
			MinKops: 4000, MaxKops: 16000, Points: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return curve
	}
	grid := map[string]string{
		"faultgrid":  "none,crash",
		"faultshard": "0", "faultat": "0.4", "detect": "2000",
	}
	params := maps.Clone(base)
	maps.Copy(params, grid)
	legs, err := service.Legs(params, 4, "faultgrid")
	if err != nil {
		t.Fatal(err)
	}
	if len(legs) != 2 || len(legs[0].On) != 0 || legs[1].On["fault"] != "crash" ||
		len(legs[1].Params) != len(base)+4 {
		t.Fatalf("fault grid expanded to %+v", legs)
	}
	// The none leg must BE the uninjected params map — not a near-copy
	// with fault keys set.
	if !reflect.DeepEqual(legs[0].Params, base) {
		t.Fatalf("none leg params %v differ from the uninjected base %v", legs[0].Params, base)
	}
	uninjected := run(base)
	if none := run(legs[0].Params); !reflect.DeepEqual(none, uninjected) {
		t.Fatal("fault-free leg curve differs from the uninjected sweep")
	}
	// The uninjected curve must not leak fault metrics (the gate contract).
	for _, pt := range uninjected {
		for _, k := range []string{"crashes", "recovery_ns", "failover_p99_ns", "ship_recs"} {
			if _, ok := pt.Metrics[k]; ok {
				t.Errorf("uninjected point at %g kops emitted %s", pt.OfferedKops, k)
			}
		}
	}
	// The crash leg recovers under every load level, with a tail far above
	// the same sweep's fault-free leg. Its crashes are counted from the
	// trace's per-point fault markers.
	res, err := harness.Run(harness.Spec{
		Scenario: "cluster/failover/sweep",
		Threads:  4, Duration: durUS * sim.Microsecond, Seed: 58, Trace: true,
		Params: map[string]string{"minkops": "4000", "maxkops": "16000", "points": "3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Trials[0].Metrics
	crashes := make(map[string]int)
	for _, rn := range res.Trials[0].Trace.Runs {
		for _, ev := range rn.Events {
			if ev.Name == "crash" {
				crashes[rn.Label]++
			}
		}
	}
	for _, pt := range uninjected {
		k := pt.OfferedKops
		if n, rec := crashes[fmt.Sprintf("offered=%g@fcrash", k)], m[fmt.Sprintf("recovery_ns@%g@fcrash", k)]; n != 1 || rec <= 0 {
			t.Errorf("crash leg at %g kops: crashes=%d recovery_ns=%g, want one recovered crash", k, n, rec)
		}
		if n := crashes[fmt.Sprintf("offered=%g@fnone", k)]; n != 0 {
			t.Errorf("fault-free leg at %g kops recorded %d crashes", k, n)
		}
		if p99, free := m[fmt.Sprintf("p99@%g@fcrash", k)], m[fmt.Sprintf("p99@%g@fnone", k)]; p99 <= free {
			t.Errorf("crash leg p99 %g ns at %g kops, want above the fault-free %g ns", p99, k, free)
		}
	}
}

// TestFailoverChurnExposure pins the churn story: leave/join cycles stop
// shipping while detached, Join reships the missed history (catch-up
// traffic), and with no crash in the schedule nothing is ever promoted or
// lost.
func TestFailoverChurnExposure(t *testing.T) {
	res, err := harness.Run(harness.Spec{
		Scenario: "cluster/failover/churn",
		Duration: 150 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Trials[0].Metrics
	if m["repl_leaves"] == 0 || m["repl_joins"] != m["repl_leaves"] {
		t.Errorf("churn cycles: %g leaves / %g joins, want a nonzero matched set", m["repl_leaves"], m["repl_joins"])
	}
	if m["catchup_recs"] == 0 {
		t.Error("joins reshipped nothing; churn never created exposure")
	}
	if m["crashes"] != 0 || m["failovers"] != 0 || m["lost_recs"] != 0 {
		t.Errorf("churn-only run recorded crashes=%g failovers=%g lost=%g, want zeros",
			m["crashes"], m["failovers"], m["lost_recs"])
	}
	if m["ship_recs"] == 0 || m["ship_batches"] == 0 {
		t.Error("no synchronous shipping happened between churn cycles")
	}
}

// TestFailoverParallelByteIdentical is the acceptance contract: the
// fault-injected family's bench output is byte-identical between
// -parallel 1 and -parallel 8 in -deterministic mode.
func TestFailoverParallelByteIdentical(t *testing.T) {
	render := func(parallel string) []byte {
		var out, errOut bytes.Buffer
		code := harness.CLIMain([]string{
			"-format=json", "-deterministic", "-duration=100", "-parallel=" + parallel,
			"cluster/failover/point", "cluster/failover/sweep", "cluster/failover/churn",
		}, &out, &errOut)
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

// TestClusterSweepCompanionsAndCache pins three point-side checks: a fault
// companion given without faultgrid reaches the point, whose validation
// applies to it (faultat=1.5 is out of range), a cluster sweep does not
// expand threadgrid, so cluster/point rejects it as unknown, and a
// negative tier size is rejected at cluster/point.
func TestClusterSweepCompanionsAndCache(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		params   map[string]string
		want     string
	}{
		{
			"cluster/sweep-local-packed",
			map[string]string{
				"fault": "crash", "replicate": "1", "putlog": "1",
				"faultat": "1.5", "points": "2",
			},
			"faultat",
		},
		{
			"cluster/sweep-local-packed",
			map[string]string{"threadgrid": "2,4", "points": "2"},
			"unknown params: [threadgrid]",
		},
		{"cluster/point", map[string]string{"cache": "-5"}, "cache must be >= 0"},
	} {
		_, err := harness.Run(harness.Spec{
			Scenario: tc.scenario, Duration: 20 * sim.Microsecond, Params: tc.params,
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: err %v, want one naming %q", tc.scenario, tc.params, err, tc.want)
		}
	}
}
