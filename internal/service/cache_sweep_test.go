package service

import (
	"bytes"
	"cmp"
	"encoding/json"
	"maps"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
)

// TestCacheSweepShape pins the hot-tier claims the cache sweep axis exists
// to demonstrate, mirroring the service/cache/sweep preset: the cache-0 leg
// is exactly the uncached curve (Legs' off-value rule), the cached legs
// move the saturation knee strictly right on a read-heavy Zipf mix, the
// steady-state hit rate grows with tier size, and mid-load p50 drops when
// repeat GETs are served from DRAM instead of the PM media.
func TestCacheSweepShape(t *testing.T) {
	base := map[string]string{
		"backend": "pmemkv", "mix": "zipf",
		"keys": "2000", "valsize": "128", "llckb": "16",
		"get": "0.95", "put": "0.05", "scan": "0",
	}
	run := func(threads int, params map[string]string) Curve {
		curve, err := RunSweep(SweepConfig{
			Backend: "pmemkv", Params: params, Threads: threads,
			Duration: 300 * sim.Microsecond, Seed: 42,
			MinKops: 4000, MaxKops: 28000, Points: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return curve
	}
	params := maps.Clone(base)
	params["cachegrid"] = "0,65536,524288"
	legs, err := Legs(params, 8, "cachegrid")
	if err != nil {
		t.Fatal(err)
	}
	if len(legs) != 3 || len(legs[0].On) != 0 || len(legs[1].Params) != len(base)+1 {
		t.Fatalf("cache grid expanded to %+v", legs)
	}
	curves := make(map[int64]Curve, len(legs))
	for _, leg := range legs {
		cache, _ := strconv.ParseInt(cmp.Or(leg.On["cache"], "0"), 10, 64)
		curves[cache] = run(leg.Threads, leg.Params)
	}
	c0, cSmall, cBig := curves[0], curves[65536], curves[524288]

	// The cache-0 leg must BE the uncached curve — same params, same derived
	// seeds, same numbers — not a near-copy with cache keys set to zero.
	if !reflect.DeepEqual(legs[0].Params, base) {
		t.Fatalf("cache-0 leg params %v differ from the uncached base %v", legs[0].Params, base)
	}
	if uncached := run(8, base); !reflect.DeepEqual(c0, uncached) {
		t.Fatal("cache-0 leg curve differs from the uncached sweep")
	}

	// The uncached leg must not emit tier counters (metric-schema gating:
	// cache-less runs stay byte-stable against the pre-tier baseline).
	for i, pt := range c0 {
		if _, ok := pt.Metrics["cache_hit_rate"]; ok {
			t.Errorf("uncached point %d emits cache_hit_rate", i)
		}
	}

	// The tier buys capacity: repeat GETs short-circuit to DRAM, so both
	// cached legs keep up with offered loads the PM-bound leg sheds at.
	k0 := c0[c0.KneeIndex()].OfferedKops
	for _, cache := range []int64{65536, 524288} {
		c := curves[cache]
		if knee := c[c.KneeIndex()].OfferedKops; knee <= k0 {
			t.Errorf("cache=%d knee at %.0f kops does not clear the uncached knee %.0f",
				cache, knee, k0)
		}
		hr := c[len(c)-1].Metrics["cache_hit_rate"]
		if hr <= 0 || hr > 1 {
			t.Errorf("cache=%d deep hit rate %v outside (0, 1]", cache, hr)
		}
	}

	// Hit rate is monotone in tier size: the bigger tier holds more of the
	// Zipf body, not just the same head.
	hrS := cSmall[len(cSmall)-1].Metrics["cache_hit_rate"]
	hrB := cBig[len(cBig)-1].Metrics["cache_hit_rate"]
	if hrB <= hrS {
		t.Errorf("hit rate not monotone in cache size: %v (512K) <= %v (64K)", hrB, hrS)
	}

	// At the load the uncached leg already saturates on, the cached legs'
	// p50 sits well below it — the median GET is a DRAM hit, not a queued
	// PM read.
	mid := c0.KneeIndex()
	for _, cache := range []int64{65536, 524288} {
		c := curves[cache]
		if c[mid].P50 >= c0[mid].P50 {
			t.Errorf("cache=%d p50 at %.0f kops is %.0f ns, not below uncached %.0f ns",
				cache, c0[mid].OfferedKops, c[mid].P50, c0[mid].P50)
		}
	}
	if sat0, satB := c0.SaturationKops(), cBig.SaturationKops(); satB < 1.1*sat0 {
		t.Errorf("cache=512K saturation %.0f kops is not clearly past uncached %.0f", satB, sat0)
	}
}

// TestCacheParallelByteIdentical is the determinism contract for the tier:
// eviction decisions derive from the job seed (never map order or wall
// clock), so cache scenario output — including the @c-suffixed sweep legs
// and every hit/eviction counter — is byte-identical between -parallel 1
// and -parallel 8.
func TestCacheParallelByteIdentical(t *testing.T) {
	render := func(parallel string) []byte {
		var out, errOut bytes.Buffer
		code := harness.CLIMain([]string{
			"-format=json", "-deterministic", "-duration=100", "-parallel=" + parallel,
			"service/cache/point", "service/cache/memmode", "service/cache/sweep",
		}, &out, &errOut)
		if code != 0 {
			t.Fatalf("-parallel=%s: exit %d, stderr: %s", parallel, code, errOut.String())
		}
		return out.Bytes()
	}
	serial, parallel := render("1"), render("8")
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel cache run diverged from serial:\n--- -parallel=1 ---\n%s\n--- -parallel=8 ---\n%s",
			serial, parallel)
	}
	if !json.Valid(serial) {
		t.Fatal("output is not valid JSON")
	}
}

// TestNegativeCacheRejected pins that a negative tier size is an error at
// the point, whether set directly or injected by a cachegrid leg.
func TestNegativeCacheRejected(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		params   map[string]string
	}{
		{"service/cache/point", map[string]string{"cache": "-5"}},
		{"service/cache/sweep", map[string]string{"cachegrid": "-5,0", "points": "2"}},
	} {
		_, err := harness.Run(harness.Spec{
			Scenario: tc.scenario, Duration: 20 * sim.Microsecond, Params: tc.params,
		})
		if err == nil || !strings.Contains(err.Error(), "cache must be >= 0") {
			t.Errorf("%s %v: err %v, want the point to reject a negative cache", tc.scenario, tc.params, err)
		}
	}
}
