package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/service"
	"optanestudy/internal/sim"
	"optanestudy/internal/topology"
)

// ---- Placement ----

func place(t *testing.T, pc PlaceConfig) *Placement {
	t.Helper()
	if pc.Geom.Sockets == 0 {
		pc.Geom = topology.DefaultGeometry()
	}
	pl, err := Place(pc)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestLocalPackedPartitionsClientSocket(t *testing.T) {
	pl := place(t, PlaceConfig{Policy: PolicyLocalPacked, Shards: 2, Workers: 4})
	seen := map[int]int{}
	for i, sp := range pl.Shards {
		if sp.DataSocket != 0 || sp.WorkerSocket != 0 {
			t.Errorf("shard %d placed on sockets (%d, %d), want client socket 0", i, sp.DataSocket, sp.WorkerSocket)
		}
		if sp.Workers != 4 {
			t.Errorf("shard %d has %d workers, want the requested 4", i, sp.Workers)
		}
		if len(sp.Channels) != 3 {
			t.Errorf("shard %d holds %d channels, want an even 3-way split of 6", i, len(sp.Channels))
		}
		for _, c := range sp.Channels {
			seen[c]++
		}
	}
	if len(seen) != 6 {
		t.Errorf("partition covers %d channels, want all 6", len(seen))
	}
	for c, n := range seen {
		if n != 1 {
			t.Errorf("channel %d assigned to %d shards, want disjoint sets", c, n)
		}
	}
	if pl.RemoteShards() != 0 {
		t.Error("local-packed must have no remote shards")
	}
}

func TestInterleavedStripesEveryShard(t *testing.T) {
	pl := place(t, PlaceConfig{Policy: PolicyInterleaved, Shards: 3, Workers: 2})
	for i, sp := range pl.Shards {
		if len(sp.Channels) != 6 {
			t.Errorf("shard %d striped over %d channels, want all 6", i, len(sp.Channels))
		}
		if sp.DataSocket != 0 || sp.Remote(pl.Geom) {
			t.Errorf("shard %d not local to the client socket", i)
		}
	}
}

func TestNUMABlindRoundRobinsData(t *testing.T) {
	pl := place(t, PlaceConfig{Policy: PolicyNUMABlind, Shards: 4, Workers: 2})
	for i, sp := range pl.Shards {
		if want := i % 2; sp.DataSocket != want {
			t.Errorf("shard %d data on socket %d, want round-robin %d", i, sp.DataSocket, want)
		}
		if sp.WorkerSocket != 0 {
			t.Errorf("shard %d workers on socket %d, want the (blind) client socket 0", i, sp.WorkerSocket)
		}
	}
	if got := pl.RemoteShards(); got != 2 {
		t.Errorf("RemoteShards() = %d, want 2 of 4 across UPI", got)
	}
	// The shards homed on one socket still partition its channels.
	s0 := map[int]bool{}
	for i, sp := range pl.Shards {
		if sp.DataSocket != 0 {
			continue
		}
		for _, c := range sp.Channels {
			if s0[c] {
				t.Errorf("shard %d shares channel %d on socket 0", i, c)
			}
			s0[c] = true
		}
	}
}

func TestCappedLimitsWorkersPerDIMM(t *testing.T) {
	capped := place(t, PlaceConfig{Policy: PolicyCapped, Shards: 2, Workers: 16, DIMMs: 1, CapPerDIMM: 4})
	uncapped := place(t, PlaceConfig{Policy: PolicyLocalPacked, Shards: 2, Workers: 16, DIMMs: 1})
	for i := range capped.Shards {
		if got := capped.Shards[i].Workers; got != 4 {
			t.Errorf("capped shard %d has %d workers, want 4 (1 DIMM × cap 4)", i, got)
		}
		if got := uncapped.Shards[i].Workers; got != 16 {
			t.Errorf("uncapped shard %d has %d workers, want the requested 16", i, got)
		}
		if !reflect.DeepEqual(capped.Shards[i].Channels, uncapped.Shards[i].Channels) {
			t.Errorf("shard %d: capped and uncapped layouts diverge", i)
		}
	}
	// A multi-DIMM shard scales the cap with its DIMM count.
	wide := place(t, PlaceConfig{Policy: PolicyCapped, Shards: 2, Workers: 16, CapPerDIMM: 4})
	for i, sp := range wide.Shards {
		if want := 4 * len(sp.Channels); sp.Workers != want {
			t.Errorf("shard %d: %d workers on %d DIMMs, want cap %d", i, sp.Workers, len(sp.Channels), want)
		}
	}
}

func TestPlacementWrapsWhenShardsExceedChannels(t *testing.T) {
	pl := place(t, PlaceConfig{Policy: PolicyLocalPacked, Shards: 8, Workers: 1})
	for i, sp := range pl.Shards {
		if len(sp.Channels) != 1 {
			t.Fatalf("shard %d has %d channels, want 1 when shards exceed channels", i, len(sp.Channels))
		}
		if want := i % 6; sp.Channels[0] != want {
			t.Errorf("shard %d on channel %d, want wrap %d", i, sp.Channels[0], want)
		}
	}
}

func TestPlacementDeterministicAndValidated(t *testing.T) {
	pc := PlaceConfig{Policy: PolicyNUMABlind, Geom: topology.DefaultGeometry(), Shards: 3, Workers: 5, DIMMs: 2}
	a, err := Place(pc)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Place(pc)
	if !reflect.DeepEqual(a, b) {
		t.Error("same config produced different placements")
	}
	geom := topology.DefaultGeometry()
	for _, bad := range []PlaceConfig{
		{Policy: "bogus", Geom: geom, Shards: 2, Workers: 1},
		{Policy: PolicyLocalPacked, Geom: geom, Shards: 0, Workers: 1},
		{Policy: PolicyLocalPacked, Geom: geom, Shards: 2, Workers: 0},
		{Policy: PolicyLocalPacked, Geom: geom, Shards: 2, Workers: 1, DIMMs: 7},
		{Policy: PolicyLocalPacked, Geom: geom, Shards: 2, Workers: 1, ClientSocket: 2},
		{Policy: PolicyCapped, Geom: geom, Shards: 2, Workers: 1, CapPerDIMM: -1},
	} {
		if _, err := Place(bad); err == nil {
			t.Errorf("Place(%+v) accepted a bad config", bad)
		}
	}
}

// ---- Router ----

func TestRouterDeterministicAndBalanced(t *testing.T) {
	r, err := NewRouter(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for id := int64(0); id < 10000; id++ {
		s := r.Shard(id)
		if s != r.Shard(id) {
			t.Fatalf("key %d routed twice to different shards", id)
		}
		if s < 0 || s >= 4 {
			t.Fatalf("key %d routed to shard %d", id, s)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n < 2000 || n > 3000 {
			t.Errorf("shard %d holds %d of 10000 uniform keys, want a near-even split", s, n)
		}
	}
}

func TestRouterSpanKeepsBlocksTogether(t *testing.T) {
	r, err := NewRouter(4, 500)
	if err != nil {
		t.Fatal(err)
	}
	shards := map[int]bool{}
	for block := int64(0); block < 8; block++ {
		want := r.Shard(block * 500)
		shards[want] = true
		for _, off := range []int64{1, 250, 499} {
			if got := r.Shard(block*500 + off); got != want {
				t.Fatalf("block %d split: id %d on shard %d, block start on %d", block, block*500+off, got, want)
			}
		}
	}
	if len(shards) < 2 {
		t.Error("eight blocks all landed on one shard")
	}
	if _, err := NewRouter(0, 1); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewRouter(2, 0); err == nil {
		t.Error("zero span accepted")
	}
}

// ---- Shape tests: the paper's placement predictions ----

// policySweep mirrors the cluster/sweep-* presets' common layout.
func policySweep(t *testing.T, policy string, params map[string]string, threads int, minKops, maxKops float64) (knee, sat float64, curve []float64, p99 []float64) {
	t.Helper()
	ps := map[string]string{"policy": policy, "shards": "2", "get": "0.5", "put": "0.5", "scan": "0"}
	for k, v := range params {
		ps[k] = v
	}
	c, err := service.RunSweep(service.SweepConfig{
		Scenario: "cluster/point", Params: ps,
		Threads: threads, Duration: 300 * sim.Microsecond, Seed: 52,
		MinKops: minKops, MaxKops: maxKops, Points: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range c {
		curve = append(curve, pt.AchievedKops)
		p99 = append(p99, pt.P99)
	}
	return c[c.KneeIndex()].OfferedKops, c.SaturationKops(), curve, p99
}

// TestNUMABlindSaturatesEarlier pins the fig. 18/19 remote penalty as a
// serving outcome: round-robining shard data across sockets while the
// workers stay on the client socket saturates at a lower offered load,
// with a lower ceiling and far worse tails, than packing the shards
// locally.
func TestNUMABlindSaturatesEarlier(t *testing.T) {
	lkKnee, lkSat, _, lkP99 := policySweep(t, PolicyLocalPacked, nil, 4, 2000, 34000)
	nbKnee, nbSat, _, nbP99 := policySweep(t, PolicyNUMABlind, nil, 4, 2000, 34000)

	if lkKnee <= nbKnee {
		t.Errorf("local-packed knee (%.0f kops) must exceed numa-blind knee (%.0f kops)", lkKnee, nbKnee)
	}
	if lkSat < 1.15*nbSat {
		t.Errorf("local-packed saturation (%.0f kops) must clearly exceed numa-blind (%.0f kops)", lkSat, nbSat)
	}
	// Past the blind layout's knee the remote shards are already queueing
	// hard: at every grid point from the second on, its p99 dwarfs the
	// local layout's.
	for i := 1; i < len(nbP99); i++ {
		if nbP99[i] < 3*lkP99[i] {
			t.Errorf("grid point %d: numa-blind p99 %.0f ns should dwarf local-packed %.0f ns", i, nbP99[i], lkP99[i])
		}
	}
}

// TestCappedBeatsUncappedOnSingleDIMMHeavyLayout pins the §5.3
// threads-per-DIMM limit at cluster level: with every shard on one DIMM
// and 16 write-behind log streams requested per shard, capping each pool
// at 4 workers per DIMM raises the knee and the ceiling, and keeps tails
// flat where the uncapped layout collapses.
func TestCappedBeatsUncappedOnSingleDIMMHeavyLayout(t *testing.T) {
	params := map[string]string{
		"dimms": "1", "putlog": "1", "keysize": "8", "valsize": "112",
		"get": "0.3", "put": "0.7",
	}
	cpKnee, cpSat, _, cpP99 := policySweep(t, PolicyCapped, params, 16, 6000, 42000)
	unKnee, unSat, _, unP99 := policySweep(t, PolicyLocalPacked, params, 16, 6000, 42000)

	if cpKnee < unKnee {
		t.Errorf("capped knee (%.0f kops) must be at least the uncapped knee (%.0f kops)", cpKnee, unKnee)
	}
	if cpSat < 1.15*unSat {
		t.Errorf("capped saturation (%.0f kops) must clearly exceed uncapped (%.0f kops)", cpSat, unSat)
	}
	if last := len(cpP99) - 1; cpP99[last]*2 > unP99[last] {
		t.Errorf("deep-overload p99: uncapped %.0f ns should collapse past capped %.0f ns", unP99[last], cpP99[last])
	}
}

// TestHotspotConcentratesOnOneShard pins the skew story: a shifting hot
// range under block routing piles onto one shard, which sheds while its
// siblings idle, and the skewed tenant absorbs the drops.
func TestHotspotConcentratesOnOneShard(t *testing.T) {
	res, err := harness.Run(harness.Spec{Scenario: "cluster/hotspot"})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Trials[0].Metrics
	const shards = 4
	if got := m["max_shard_share"]; got < 1.6/shards {
		t.Errorf("max shard share %.3f, want well above the fair %.3f", got, 1.0/shards)
	}
	shedding := 0
	for i := 0; i < shards; i++ {
		if m[fmt.Sprintf("s%d_drop_frac", i)] > 0 {
			shedding++
		}
	}
	if shedding == 0 || shedding > 2 {
		t.Errorf("%d shards shed load, want the hot one (or two while the window straddles a block)", shedding)
	}
	if hot, uni := m["t0_shed_ops"], m["t1_shed_ops"]; hot < 2*uni || hot == 0 {
		t.Errorf("hot tenant shed %.0f ops vs uniform tenant %.0f, want the skewed tenant to absorb the drops", hot, uni)
	}
}

// TestClusterParallelByteIdentical is the acceptance contract: clusterbench
// output for the cluster family is byte-identical between -parallel 1 and
// -parallel 8 in -deterministic mode.
func TestClusterParallelByteIdentical(t *testing.T) {
	render := func(parallel string) []byte {
		var out, errOut bytes.Buffer
		code := harness.CLIMain([]string{
			"-format=json", "-deterministic", "-duration=100", "-parallel=" + parallel,
			"cluster/sweep-local-packed", "cluster/point", "cluster/hotspot",
		}, harness.CLIOptions{Command: "test", Stdout: &out, Stderr: &errOut})
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
