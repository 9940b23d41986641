package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
)

// The shape tests pin the qualitative serving claims the subsystem exists
// to demonstrate, in the style of the figure tests: the registered sweep
// presets must show an achieved-throughput curve that rises monotonically,
// flattens at saturation while tail latency blows up past the knee, and
// saturates earlier when more threads contend for one DIMM than the
// paper's recommended limit.

func defaultSweep(t *testing.T) Curve {
	t.Helper()
	// Mirrors the service/kv/sweep-pmemkv preset.
	curve, err := RunSweep(SweepConfig{
		Backend: "pmemkv", Threads: 8,
		Duration: 300 * sim.Microsecond, Seed: 33,
		MinKops: 2000, MaxKops: 44000, Points: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return curve
}

func TestSweepCurveShape(t *testing.T) {
	curve := defaultSweep(t)
	if len(curve) != 7 {
		t.Fatalf("curve has %d points, want 7", len(curve))
	}
	knee := curve.KneeIndex()
	if knee <= 0 || knee >= len(curve)-1 {
		t.Fatalf("knee at %d: the grid must straddle saturation", knee)
	}

	// Achieved throughput is monotone non-decreasing (within noise) and
	// flattens at saturation: the last step of offered load buys almost no
	// throughput, while the grid pushes well past the saturation point.
	for i := 1; i < len(curve); i++ {
		if curve[i].AchievedKops < 0.97*curve[i-1].AchievedKops {
			t.Errorf("achieved throughput dips at point %d: %.0f after %.0f",
				i, curve[i].AchievedKops, curve[i-1].AchievedKops)
		}
	}
	last, prev := curve[len(curve)-1], curve[len(curve)-2]
	if last.AchievedKops > 1.1*prev.AchievedKops {
		t.Errorf("curve still climbing at the top of the grid: %.0f vs %.0f",
			last.AchievedKops, prev.AchievedKops)
	}
	if sat := curve.SaturationKops(); last.OfferedKops < 1.4*sat {
		t.Errorf("grid tops out at %.0f, not deep past saturation %.0f",
			last.OfferedKops, sat)
	}

	// Tail latency blows up past the knee: p50 and p99 at deep overload
	// dwarf their values at the last clearly-unsaturated point (worker
	// pool under 60% busy).
	light := 0
	for i, pt := range curve {
		if pt.Util <= 0.6 {
			light = i
		}
	}
	if light == 0 || light >= len(curve)-1 {
		t.Fatalf("grid lacks a light-load/overload split (light=%d)", light)
	}
	if last.P99 < 3*curve[light].P99 {
		t.Errorf("p99 blow-up too small: %.0f vs light-load %.0f", last.P99, curve[light].P99)
	}
	if last.P50 < 10*curve[0].P50 {
		t.Errorf("p50 blow-up too small: %.0f vs light-load %.0f", last.P50, curve[0].P50)
	}
	// The p99 climb is superlinear in offered load: its steepest step sits
	// at the saturation crossing, not in the flat light-load region.
	maxJump, maxAt := 0.0, 0
	for i := 1; i < len(curve); i++ {
		if jump := curve[i].P99 / curve[i-1].P99; jump > maxJump {
			maxJump, maxAt = jump, i
		}
	}
	if maxJump < 1.4 || maxAt <= light || maxAt > knee+1 {
		t.Errorf("steepest p99 step (%.2fx at point %d) should sit at the knee crossing (light=%d, knee=%d)",
			maxJump, maxAt, light, knee)
	}

	// Load shedding appears only as the pool saturates, and deep overload
	// sheds hard with the workers pinned busy.
	for i := 0; i <= light; i++ {
		if curve[i].DropFrac != 0 {
			t.Errorf("light-load point %d sheds %.3f of load", i, curve[i].DropFrac)
		}
	}
	if last.DropFrac < 0.1 {
		t.Errorf("deep overload sheds only %.3f", last.DropFrac)
	}
	if last.Util < 0.9 {
		t.Errorf("workers only %.2f busy at deep overload", last.Util)
	}
}

func TestContentionShape(t *testing.T) {
	// Mirrors the service/kv/sweep-contention preset: per-worker 128 B
	// append-log streams onto a single DIMM.
	params := map[string]string{
		"backend": "pmemkv", "media": "optane-ni",
		"putlog": "1", "keysize": "8", "valsize": "112",
		"get": "0.3", "put": "0.7", "scan": "0",
	}
	run := func(threads int) Curve {
		curve, err := RunSweep(SweepConfig{
			Backend: "pmemkv", Params: params, Threads: threads,
			Duration: 300 * sim.Microsecond, Seed: 35,
			MinKops: 3000, MaxKops: 21000, Points: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return curve
	}
	within := run(4) // at the paper's recommended threads-per-DIMM limit
	over := run(16)  // far past it

	// Saturation arrives earlier — at a lower offered load and a lower
	// ceiling — with 16 threads on the DIMM than with 4.
	if wk, ok := within.KneeIndex(), over.KneeIndex(); within[wk].OfferedKops <= over[ok].OfferedKops {
		t.Errorf("knee with 4 workers (%.0f kops) should exceed knee with 16 (%.0f kops)",
			within[wk].OfferedKops, over[ok].OfferedKops)
	}
	satW, satO := within.SaturationKops(), over.SaturationKops()
	if satW < 1.15*satO {
		t.Errorf("saturation with 4 workers (%.0f) should clearly exceed 16 workers (%.0f)",
			satW, satO)
	}
	// At a load the 4-worker pool still keeps up with, the oversubscribed
	// pool has already collapsed into queueing.
	mid := within.KneeIndex()
	if over[mid].P99 < 5*within[mid].P99 {
		t.Errorf("p99 at %.0f kops: 16 workers %.0f should dwarf 4 workers %.0f",
			within[mid].OfferedKops, over[mid].P99, within[mid].P99)
	}
}

// TestBatchSweepShape pins the group-commit claims the batch sweep axis
// exists to demonstrate, mirroring the service/batch/sweep preset: the
// depth-1 leg is exactly the unbatched contention curve (Legs' off-value
// rule), deeper legs shift the saturation knee to a higher offered load,
// the deepest grid point runs well under one fence per op, and the
// light-load p50 penalty stays within the linger bound.
func TestBatchSweepShape(t *testing.T) {
	base := map[string]string{
		"backend": "pmemkv", "media": "optane-ni",
		"putlog": "1", "keysize": "8", "valsize": "112",
		"get": "0.3", "put": "0.7", "scan": "0",
	}
	run := func(threads int, params map[string]string) Curve {
		curve, err := RunSweep(SweepConfig{
			Backend: "pmemkv", Params: params, Threads: threads,
			Duration: 300 * sim.Microsecond, Seed: 35,
			MinKops: 3000, MaxKops: 21000, Points: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return curve
	}
	params := maps.Clone(base)
	params["batchgrid"] = "1,8,32"
	params["batchlinger"] = "1000"
	legs, err := Legs(params, 4, "batchgrid")
	if err != nil {
		t.Fatal(err)
	}
	if len(legs) != 3 || len(legs[0].On) != 0 || legs[1].Params["linger"] != "1000" {
		t.Fatalf("batch grid expanded to %+v", legs)
	}
	curves := make(map[int]Curve, len(legs))
	for _, leg := range legs {
		depth, _ := strconv.Atoi(cmp.Or(leg.On["batch"], "1"))
		curves[depth] = run(leg.Threads, leg.Params)
	}
	b1, b8, b32 := curves[1], curves[8], curves[32]

	// The depth-1 leg must BE the unbatched curve — same params, same
	// derived seeds, same numbers — not a near-copy with batch keys set.
	if !reflect.DeepEqual(legs[0].Params, base) {
		t.Fatalf("depth-1 leg params %v differ from the unbatched base %v", legs[0].Params, base)
	}
	if unbatched := run(4, base); !reflect.DeepEqual(b1, unbatched) {
		t.Fatal("depth-1 leg curve differs from the unbatched sweep")
	}

	// Group commit moves the saturation knee right: the fence amortization
	// buys capacity, so deeper legs keep up with offered loads the
	// one-fence-per-PUT leg already sheds at.
	k1 := b1[b1.KneeIndex()].OfferedKops
	for _, depth := range []int{8, 32} {
		c := curves[depth]
		if knee := c[c.KneeIndex()].OfferedKops; knee <= k1 {
			t.Errorf("batch=%d knee at %.0f kops does not clear the unbatched knee %.0f", depth, knee, k1)
		}
		// At the deepest grid point every wakeup drains a full batch, so
		// fences per op sit far below one (1/depth in the limit).
		deep := c[len(c)-1].Metrics["pmem_fence_per_op"]
		if deep <= 0 || deep >= 0.25 {
			t.Errorf("batch=%d fences/op at the deepest point = %v, want (0, 0.25)", depth, deep)
		}
		if b1deep := b1[len(b1)-1].Metrics["pmem_fence_per_op"]; b1deep != 0 {
			t.Errorf("unbatched leg emits group-commit counters (%v)", b1deep)
		}
		// Linger bounds the light-load latency cost: a short batch commits
		// at most `linger` past its oldest request's arrival.
		if delta := c[0].P50 - b1[0].P50; delta > 1100 {
			t.Errorf("batch=%d light-load p50 penalty %.0f ns exceeds the 1000 ns linger bound", depth, delta)
		}
	}
	if sat1, sat8 := b1.SaturationKops(), b8.SaturationKops(); sat8 < 1.1*sat1 {
		t.Errorf("batch=8 saturation %.0f kops is not clearly past unbatched %.0f", sat8, sat1)
	}
	if sat8, sat32 := b8.SaturationKops(), b32.SaturationKops(); sat32 < sat8 {
		t.Errorf("batch=32 saturation %.0f kops fell below batch=8's %.0f", sat32, sat8)
	}
}

// TestServeParallelByteIdentical is the acceptance contract: bench
// output for the sweep scenario is byte-identical between -parallel 1 and
// -parallel 8 in -deterministic mode.
func TestServeParallelByteIdentical(t *testing.T) {
	render := func(parallel string) []byte {
		var out, errOut bytes.Buffer
		code := harness.CLIMain([]string{
			"-format=json", "-deterministic", "-duration=100", "-parallel=" + parallel,
			"service/kv/sweep-pmemkv", "service/kv/pmemkv",
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

// TestLegs pins the sweep-axis table: each axis's suffix tag and title,
// the cross-product order, the off-value rule (an off leg's params are the
// base), integers in standard form, companions renamed onto the legs where
// their axis is on, grid and companion keys consumed from the base map,
// and grids the caller does not name left for the point.
func TestLegs(t *testing.T) {
	base := map[string]string{"backend": "pmemkv", "putlog": "1"}
	var allGrids []string
	for _, a := range sweepAxes {
		allGrids = append(allGrids, a.grid)
	}
	with := func(kv ...string) map[string]string {
		m := maps.Clone(base)
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = kv[i+1]
		}
		return m
	}
	on := func(kv ...string) map[string]string {
		m := make(map[string]string)
		for i := 0; i < len(kv); i += 2 {
			m[kv[i]] = kv[i+1]
		}
		return m
	}
	for _, tc := range []struct {
		name  string
		grid  map[string]string // sweep params on top of base
		grids []string          // the axes Legs expands; nil for all
		want  []Leg
	}{
		{
			name: "no grid: companions stay for the point",
			grid: map[string]string{"batchlinger": "500", "cacheevict": "random", "faultat": "0.8"},
			want: []Leg{{Threads: 4, Params: with("batchlinger", "500", "cacheevict", "random", "faultat", "0.8")}},
		},
		{
			name: "threads",
			grid: map[string]string{"threadgrid": "4, 16"},
			want: []Leg{
				{Threads: 4, Params: with(), Suffix: "@t4"},
				{Threads: 16, Params: with(), Suffix: "@t16"},
			},
		},
		{
			name: "policy",
			grid: map[string]string{"policygrid": "capped,local-packed"},
			want: []Leg{
				{Threads: 4, Params: with("policy", "capped"), On: on("policy", "capped"), Suffix: "@capped"},
				{Threads: 4, Params: with("policy", "local-packed"), On: on("policy", "local-packed"), Suffix: "@local-packed"},
			},
		},
		{
			name: "batch",
			grid: map[string]string{"batchgrid": "1,8", "batchlinger": "1000"},
			want: []Leg{
				{Threads: 4, Params: with(), Suffix: "@b1", Title: ", batch 1"},
				{Threads: 4, Params: with("batch", "8", "linger", "1000"), On: on("batch", "8"), Suffix: "@b8", Title: ", batch 8"},
			},
		},
		{
			name: "cache",
			grid: map[string]string{
				"cachegrid": "0,65536", "cachequota": "4096", "cacheadmit": "2",
				"cacheevict": "random", "cachetier": "hot",
			},
			want: []Leg{
				{Threads: 4, Params: with(), Suffix: "@c0", Title: ", cache 0 B"},
				{
					Threads: 4,
					Params: with("cache", "65536", "quota", "4096", "admit", "2",
						"evict", "random", "tier", "hot"),
					On: on("cache", "65536"), Suffix: "@c65536", Title: ", cache 65536 B",
				},
			},
		},
		{
			name: "fault",
			grid: map[string]string{"faultgrid": "none,crash", "faultat": "0.8", "detect": "500"},
			want: []Leg{
				{Threads: 4, Params: with(), Suffix: "@fnone", Title: ", fault none"},
				{
					Threads: 4, Params: with("fault", "crash", "faultat", "0.8", "detect", "500"),
					On: on("fault", "crash"), Suffix: "@fcrash", Title: ", fault crash",
				},
			},
		},
		{
			name: "integers in standard form",
			grid: map[string]string{"threadgrid": "016", "batchgrid": "01,+8", "cachegrid": "00"},
			want: []Leg{
				{Threads: 16, Params: with(), Suffix: "@b1", Title: ", batch 1"},
				{Threads: 16, Params: with("batch", "8"), On: on("batch", "8"), Suffix: "@b8", Title: ", batch 8"},
			},
		},
		{
			name:  "unnamed grid stays for the point",
			grid:  map[string]string{"batchgrid": "1,8", "faultgrid": "none", "faultat": "0.8"},
			grids: []string{"batchgrid"},
			want: []Leg{
				{Threads: 4, Params: with("faultgrid", "none", "faultat", "0.8"), Suffix: "@b1", Title: ", batch 1"},
				{
					Threads: 4, Params: with("faultgrid", "none", "faultat", "0.8", "batch", "8"),
					On: on("batch", "8"), Suffix: "@b8", Title: ", batch 8",
				},
			},
		},
		{
			name: "one value: no suffix or title",
			grid: map[string]string{"batchgrid": "8"},
			want: []Leg{{Threads: 4, Params: with("batch", "8"), On: on("batch", "8")}},
		},
		{
			name: "cross product: threads, batch, cache",
			grid: map[string]string{"threadgrid": "2,8", "batchgrid": "1,8", "cachegrid": "0,65536"},
			want: []Leg{
				{Threads: 2, Params: with(), Suffix: "@t2@b1@c0", Title: ", batch 1, cache 0 B"},
				{Threads: 2, Params: with("cache", "65536"), On: on("cache", "65536"), Suffix: "@t2@b1@c65536", Title: ", batch 1, cache 65536 B"},
				{Threads: 2, Params: with("batch", "8"), On: on("batch", "8"), Suffix: "@t2@b8@c0", Title: ", batch 8, cache 0 B"},
				{Threads: 2, Params: with("batch", "8", "cache", "65536"), On: on("batch", "8", "cache", "65536"), Suffix: "@t2@b8@c65536", Title: ", batch 8, cache 65536 B"},
				{Threads: 8, Params: with(), Suffix: "@t8@b1@c0", Title: ", batch 1, cache 0 B"},
				{Threads: 8, Params: with("cache", "65536"), On: on("cache", "65536"), Suffix: "@t8@b1@c65536", Title: ", batch 1, cache 65536 B"},
				{Threads: 8, Params: with("batch", "8"), On: on("batch", "8"), Suffix: "@t8@b8@c0", Title: ", batch 8, cache 0 B"},
				{Threads: 8, Params: with("batch", "8", "cache", "65536"), On: on("batch", "8", "cache", "65536"), Suffix: "@t8@b8@c65536", Title: ", batch 8, cache 65536 B"},
			},
		},
		{
			name: "cross product: policy, fault",
			grid: map[string]string{"policygrid": "capped,local-packed", "faultgrid": "none,stall"},
			want: []Leg{
				{Threads: 4, Params: with("policy", "capped"), On: on("policy", "capped"), Suffix: "@capped@fnone", Title: ", fault none"},
				{Threads: 4, Params: with("policy", "capped", "fault", "stall"), On: on("policy", "capped", "fault", "stall"), Suffix: "@capped@fstall", Title: ", fault stall"},
				{Threads: 4, Params: with("policy", "local-packed"), On: on("policy", "local-packed"), Suffix: "@local-packed@fnone", Title: ", fault none"},
				{Threads: 4, Params: with("policy", "local-packed", "fault", "stall"), On: on("policy", "local-packed", "fault", "stall"), Suffix: "@local-packed@fstall", Title: ", fault stall"},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			params := with()
			maps.Copy(params, tc.grid)
			grids := tc.grids
			if grids == nil {
				grids = allGrids
			}
			legs, err := Legs(params, 4, grids...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(legs, tc.want) {
				t.Errorf("legs:\n got %+v\nwant %+v", legs, tc.want)
			}
			// Legs consumes every named grid present and that grid's
			// companions, leaving the base the off legs run with.
			for _, a := range sweepAxes {
				if _, ok := tc.grid[a.grid]; !ok || !slices.Contains(grids, a.grid) {
					continue
				}
				if _, ok := params[a.grid]; ok {
					t.Errorf("grid %s left in the base params", a.grid)
				}
				for c := range a.companions {
					if _, ok := params[c]; ok {
						t.Errorf("companion %s left in the base params", c)
					}
				}
			}
			for _, leg := range legs {
				if len(leg.On) == 0 && !reflect.DeepEqual(leg.Params, params) {
					t.Errorf("off leg %q params %v differ from the base %v", leg.Suffix, leg.Params, params)
				}
			}
		})
	}

	for _, tc := range []struct {
		grid, value string
	}{
		{"threadgrid", "0"},
		{"threadgrid", "4,x"},
		{"batchgrid", "8,8"},
		{"batchgrid", "8,08"},
		{"batchgrid", "x"},
		{"cachegrid", "0, 65536,65536"},
		{"policygrid", "capped,"},
	} {
		_, err := Legs(map[string]string{tc.grid: tc.value}, 4, allGrids...)
		if err == nil || !strings.Contains(err.Error(), "param "+tc.grid+"=") {
			t.Errorf("%s=%s: err %v, want one naming the grid param", tc.grid, tc.value, err)
		}
	}
}

// TestSweepCompanionWithoutGridRejected pins that a param the service
// sweep does not expand reaches the point, whose reader rejects it instead
// of the sweep dropping it silently: a grid companion without its grid,
// and the policy and fault grids, which only cluster sweeps expand.
func TestSweepCompanionWithoutGridRejected(t *testing.T) {
	for _, tc := range []struct {
		params map[string]string
		want   string
	}{
		{map[string]string{"batchlinger": "500"}, "batchlinger"},
		{map[string]string{"cachequota": "500"}, "cachequota"},
		{map[string]string{"cacheevict": "random"}, "cacheevict"},
		{map[string]string{"policygrid": "capped,local-packed"}, "policygrid"},
		{map[string]string{"faultgrid": "none", "faultat": "0.8"}, "faultgrid"},
	} {
		tc.params["points"] = "2"
		_, err := harness.Run(harness.Spec{
			Scenario: "service/kv/sweep-pmemkv", Duration: 20 * sim.Microsecond,
			Params: tc.params,
		})
		if err == nil || !strings.Contains(err.Error(), "unknown params") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err %v, want the point to reject %s", tc.params, err, tc.want)
		}
	}
}
