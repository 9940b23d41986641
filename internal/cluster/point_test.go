package cluster

import (
	"reflect"
	"strings"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
)

// pointScenarios are the single-node and cluster point scenarios that
// share service.RunPoint.
var pointScenarios = []string{"service/kv/pmemkv", "cluster/point"}

// Every shared point check must reject its param the same way on both
// point scenarios, with an error naming the param and its value. The
// Memory-Mode near cache stays a single-node axis: the cluster's builder
// rejects it even with a valid DRAM budget.
func TestSharedPointChecks(t *testing.T) {
	for _, tc := range []struct {
		params    map[string]string
		want      string
		scenarios []string // nil: both point scenarios
	}{
		{map[string]string{"cache": "-5"}, "cache must be >= 0, got -5", nil},
		{map[string]string{"llckb": "-1"}, "llckb must be >= 0, got -1", nil},
		{map[string]string{"batch": "0"}, "batch size must be >= 1, got 0", nil},
		{map[string]string{"linger": "-1"}, "linger must be >= 0 ns, got -1", nil},
		{map[string]string{"scanmode": "x"}, `unknown scanmode "x"`, nil},
		{map[string]string{"offered": "0"}, "offered load must be positive, got 0", nil},
		{map[string]string{"tenants": "0"}, "tenants must be >= 1, got 0", nil},
		{map[string]string{"mix": "x"}, `unknown key mix "x"`, nil},
		{map[string]string{"tier": "x"}, `unknown tier "x"`, nil},
		{map[string]string{"tier": "hot", "cache": "0"}, "tier=hot needs a positive cache size, got 0", nil},
		{
			map[string]string{"tier": "memmode", "cache": "262144"},
			"tier=memmode is a single-node axis", []string{"cluster/point"},
		},
	} {
		scenarios := tc.scenarios
		if scenarios == nil {
			scenarios = pointScenarios
		}
		for _, scenario := range scenarios {
			_, err := harness.Run(harness.Spec{
				Scenario: scenario, Duration: 20 * sim.Microsecond, Params: tc.params,
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s %v: err %v, want one containing %q", scenario, tc.params, err, tc.want)
			}
		}
	}
}

// Both point scenarios serve what the shared runner accepts: the hotsplit
// key mix, and records too large for the default 2 MiB per-worker log
// region, which grows to four records.
func TestPointsServeSharedParams(t *testing.T) {
	oversized := map[string]string{
		"putlog": "1", "valsize": "2200000", "keys": "4",
		"put": "1", "get": "0", "scan": "0", "offered": "20",
	}
	for _, tc := range []struct {
		name     string
		params   map[string]string
		duration sim.Time
	}{
		{"hotsplit", map[string]string{"mix": "hotsplit"}, 50 * sim.Microsecond},
		{"oversized-records", oversized, 500 * sim.Microsecond},
	} {
		for _, scenario := range pointScenarios {
			res, err := harness.Run(harness.Spec{
				Scenario: scenario, Duration: tc.duration, Params: tc.params,
			})
			if err != nil {
				t.Errorf("%s %s: %v", scenario, tc.name, err)
				continue
			}
			if ops := res.Trials[0].Ops; ops == 0 {
				t.Errorf("%s %s: served no ops", scenario, tc.name)
			}
		}
	}
}

// Tracing must not move a point's results, whichever fabric serves it, and
// the first timeline sample's gauges must come in probe registration
// order: append logs (pmem_*), devices (xp_*), then the DRAM tier (cache_*
// and memmode_writebacks), each group present exactly when the shape has
// it.
func TestTracedPointsMatchUntraced(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		params   map[string]string
		groups   []string
	}{
		{"service/batch/point", nil, []string{"pmem", "xp"}},
		{"service/cache/point", nil, []string{"xp", "cache"}},
		{"service/cache/memmode", nil, []string{"xp", "cache", "memmode"}},
		{"cluster/point", map[string]string{"cache": "524288", "llckb": "16"}, []string{"xp", "cache"}},
		{"cluster/failover/point", nil, []string{"pmem", "xp"}},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			spec := harness.Spec{Scenario: tc.scenario, Params: tc.params, Duration: 150 * sim.Microsecond}
			off, err := harness.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Trace = true
			on, err := harness.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			tOff, tOn := off.Trials[0], on.Trials[0]
			for k, v := range tOff.Metrics {
				if w, ok := tOn.Metrics[k]; !ok || w != v {
					t.Errorf("metric %s moved under tracing: %g -> %g (present %t)", k, v, w, ok)
				}
			}
			if tOff.Ops != tOn.Ops {
				t.Errorf("ops moved under tracing: %d -> %d", tOff.Ops, tOn.Ops)
			}
			if tOn.Trace == nil || len(tOn.Trace.Runs) != 1 || len(tOn.Trace.Runs[0].Samples) == 0 {
				t.Fatal("traced point recorded no timeline sample")
			}
			var groups []string
			for _, g := range tOn.Trace.Runs[0].Samples[0].Gauges {
				group, _, _ := strings.Cut(g.Name, "_")
				if len(groups) == 0 || groups[len(groups)-1] != group {
					groups = append(groups, group)
				}
			}
			if !reflect.DeepEqual(groups, tc.groups) {
				t.Errorf("gauge groups %v, want %v", groups, tc.groups)
			}
		})
	}
}
