package replica

import (
	"bytes"
	"testing"

	"optanestudy/internal/platform"
	"optanestudy/internal/service"
)

const (
	testKeys    = 64
	testKeySize = 16
	testValSize = 64
	testWorkers = 2
)

// testPair builds a two-node pair: node 0 (initial primary) on socket 0,
// node 1 (standby) on socket 1, each with its own backend and per-worker
// log streams.
func testPair(t *testing.T) (*platform.Platform, *Pair) {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	t.Cleanup(p.Close)
	mk := func(prefix string, socket int) Node {
		be, err := service.NewBackend(p, "pmemkv", service.BackendSpec{
			Media: "optane", Socket: socket, NamePrefix: prefix,
			Keys: testKeys, KeySize: testKeySize, ValSize: testValSize,
			PMBytes: 8 << 20, DRAMBytes: 4 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		lg, err := service.NewAppendLog(p, service.BackendSpec{
			Media: "optane", Socket: socket, NamePrefix: prefix + "l",
			PMBytes: 4 << 20,
		}, testWorkers, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		return Node{Backend: be, Log: lg, Socket: socket}
	}
	prim, stby := mk("prim", 0), mk("stby", 1)
	pair, err := NewPair(0, testWorkers, prim, stby)
	if err != nil {
		t.Fatal(err)
	}
	return p, pair
}

// record ships key id as a batch of one — the unbatched serving path —
// with a value distinct from the preload, so promotion correctness is
// observable through Get.
func record(t *testing.T, ctx *platform.MemCtx, pair *Pair, id int64) {
	t.Helper()
	w := int(id) % testWorkers
	key := service.KeyFor(id, testKeySize)
	val := service.ValFor(id+1000, testValSize)
	pair.BatchBegin(w)
	if err := pair.BatchAdd(ctx, w, key, val); err != nil {
		t.Error(err)
	}
	if err := pair.BatchCommit(ctx, w); err != nil {
		t.Error(err)
	}
}

func checkReplayed(t *testing.T, ctx *platform.MemCtx, be service.Backend, ids ...int64) {
	t.Helper()
	for _, id := range ids {
		got := make([]byte, testValSize)
		n, ok := be.GetInto(ctx, service.KeyFor(id, testKeySize), got)
		if !ok {
			t.Fatalf("key %d missing from promoted backend", id)
		}
		if want := service.ValFor(id+1000, testValSize); n != len(want) || !bytes.Equal(got, want) {
			t.Fatalf("key %d: promoted backend serves the preload value, not the replicated write", id)
		}
	}
}

// Synchronous shipping followed by promotion: the promoted standby must
// serve every acknowledged write, the roles must swap, and the dead
// primary must be unusable until it rejoins.
func TestShipAndPromote(t *testing.T) {
	p, pair := testPair(t)
	stby := pair.nodes[1]
	p.Go("drive", 0, func(ctx *platform.MemCtx) {
		for id := int64(0); id < 10; id++ {
			record(t, ctx, pair, id)
		}
		st := pair.Stats()
		if st.ShipRecs != 10 || st.ShipBatches != 10 || st.ShipBytes == 0 {
			t.Errorf("ship stats = %+v, want 10 recs / 10 batches", st)
		}
		be, plog, err := pair.Promote(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if be != stby.Backend || plog != stby.Log {
			t.Error("promotion did not hand back the standby's backend and log")
		}
		if pair.Primary() != 1 || pair.Attached() || pair.Synced() {
			t.Error("post-promotion role state wrong")
		}
		st = pair.Stats()
		if st.Failovers != 1 || st.ReplayRecs != 10 || st.LostRecs != 0 {
			t.Errorf("promotion stats = %+v, want 1 failover / 10 replayed / 0 lost", st)
		}
		checkReplayed(t, ctx, be, 0, 5, 9)
		// The dead primary never rejoined: a second crash has no standby.
		if _, _, err := pair.Promote(ctx); err == nil {
			t.Error("promotion onto a dirty un-joined spare accepted")
		}
	})
	p.Run()
}

// crashSentinel unwinds the shipping thread mid-commit.
type crashSentinel struct{}

// A shipment torn mid-stream (the primary dies inside the ship commit)
// was never fenced and never acknowledged: promotion must replay exactly
// the committed shipments and count the torn batch as lost.
func TestTornShipmentDiscarded(t *testing.T) {
	p, pair := testPair(t)
	p.Go("drive", 0, func(ctx *platform.MemCtx) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashSentinel); !ok {
					panic(r)
				}
			}
		}()
		// Two clean group shipments of two records each, all on worker 0.
		for b := int64(0); b < 2; b++ {
			pair.BatchBegin(0)
			for i := int64(0); i < 2; i++ {
				id := b*2 + i
				if err := pair.BatchAdd(ctx, 0, service.KeyFor(id, testKeySize), service.ValFor(id+1000, testValSize)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := pair.BatchCommit(ctx, 0); err != nil {
				t.Error(err)
				return
			}
		}
		// Third shipment tears mid-payload-stream.
		pair.standby().Log.Appender(0).CrashHook = func(stage string) {
			if stage == "partial" {
				panic(crashSentinel{})
			}
		}
		pair.BatchBegin(0)
		for i := int64(4); i < 7; i++ {
			if err := pair.BatchAdd(ctx, 0, service.KeyFor(i, testKeySize), service.ValFor(i+1000, testValSize)); err != nil {
				t.Error(err)
				return
			}
		}
		_ = pair.BatchCommit(ctx, 0) // panics at the "partial" stage
		t.Error("crash hook never fired")
	})
	p.Run()
	pair.standby().Log.Appender(0).CrashHook = nil
	p.Go("recover", 1, func(ctx *platform.MemCtx) {
		be, _, err := pair.Promote(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		st := pair.Stats()
		if st.ReplayBatches != 2 || st.ReplayRecs != 4 || st.LostRecs != 3 {
			t.Errorf("torn-shipment stats = %+v, want 2 batches / 4 recs replayed, 3 lost", st)
		}
		checkReplayed(t, ctx, be, 0, 3)
		// The torn shipment's writes must NOT have been replayed: key 4
		// still serves its preload value.
		got := make([]byte, testValSize)
		n, ok := be.GetInto(ctx, service.KeyFor(4, testKeySize), got)
		if !ok {
			t.Fatal("key 4 missing")
		}
		if n == testValSize && bytes.Equal(got, service.ValFor(4+1000, testValSize)) {
			t.Error("torn (never-acknowledged) shipment was replayed")
		}
	})
	p.Run()
}

// Leave/Join churn: writes acknowledged while the standby is away buffer
// in the send history and Join reships them; after catch-up the standby
// is promotable with zero loss.
func TestLeaveJoinCatchup(t *testing.T) {
	p, pair := testPair(t)
	p.Go("drive", 0, func(ctx *platform.MemCtx) {
		for id := int64(0); id < 3; id++ {
			record(t, ctx, pair, id)
		}
		pair.Leave()
		for id := int64(3); id < 7; id++ {
			record(t, ctx, pair, id)
		}
		if st := pair.Stats(); st.ShipRecs != 3 {
			t.Errorf("detached standby still shipped (%d recs)", st.ShipRecs)
		}
		if err := pair.Join(ctx); err != nil {
			t.Error(err)
			return
		}
		st := pair.Stats()
		if st.CatchupRecs != 4 || st.ShipRecs != 7 || st.Leaves != 1 || st.Joins != 1 {
			t.Errorf("catch-up stats = %+v, want 4 catch-up / 7 shipped", st)
		}
		if !pair.Synced() {
			t.Error("standby not synced after join")
		}
		record(t, ctx, pair, 7) // synchronous shipping resumed
		if st := pair.Stats(); st.ShipRecs != 8 {
			t.Errorf("post-join record did not ship (%d recs)", st.ShipRecs)
		}
		be, _, err := pair.Promote(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if st := pair.Stats(); st.LostRecs != 0 || st.ReplayRecs != 8 {
			t.Errorf("post-catch-up promotion stats = %+v, want 8 replayed / 0 lost", st)
		}
		checkReplayed(t, ctx, be, 0, 3, 6, 7)
	})
	p.Run()
}

// Promotion while the standby is detached loses exactly the unreplicated
// suffix — the churn-exposure story the failover scenarios measure.
func TestDetachedPromotionCountsLoss(t *testing.T) {
	p, pair := testPair(t)
	p.Go("drive", 0, func(ctx *platform.MemCtx) {
		for id := int64(0); id < 4; id++ {
			record(t, ctx, pair, id)
		}
		pair.Leave()
		for id := int64(4); id < 9; id++ {
			record(t, ctx, pair, id)
		}
		if _, _, err := pair.Promote(ctx); err != nil {
			t.Error(err)
			return
		}
		st := pair.Stats()
		if st.ReplayRecs != 4 || st.LostRecs != 5 {
			t.Errorf("detached promotion stats = %+v, want 4 replayed / 5 lost", st)
		}
		if pair.HistoryLen() != 4 {
			t.Errorf("history holds %d records, want the 4 the new primary serves", pair.HistoryLen())
		}
	})
	p.Run()
}

// A full crash → rejoin → crash-back cycle: the dirty spare's log is
// truncated in place, the whole history reships, and the pair fails back
// onto the original node with zero loss.
func TestCrashJoinCrashCycle(t *testing.T) {
	p, pair := testPair(t)
	p.Go("drive", 0, func(ctx *platform.MemCtx) {
		for id := int64(0); id < 5; id++ {
			record(t, ctx, pair, id)
		}
		if _, _, err := pair.Promote(ctx); err != nil {
			t.Error(err)
			return
		}
		// Node 1 serves; node 0 is a dirty spare. More writes accrue.
		for id := int64(5); id < 8; id++ {
			record(t, ctx, pair, id)
		}
		if err := pair.Join(ctx); err != nil {
			t.Error(err)
			return
		}
		st := pair.Stats()
		if st.CatchupRecs != 8 {
			t.Errorf("rebuilt spare caught up %d records, want the full 8-record history", st.CatchupRecs)
		}
		be, _, err := pair.Promote(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if pair.Primary() != 0 {
			t.Errorf("failback primary = %d, want node 0", pair.Primary())
		}
		if st := pair.Stats(); st.Failovers != 2 || st.LostRecs != 0 {
			t.Errorf("cycle stats = %+v, want 2 failovers / 0 lost", st)
		}
		checkReplayed(t, ctx, be, 0, 4, 7)
		// Node 1 rejoins as standby; a second join is misuse.
		if err := pair.Join(ctx); err != nil {
			t.Error(err)
			return
		}
		if err := pair.Join(ctx); err == nil {
			t.Error("join with an attached standby accepted")
		}
	})
	p.Run()
}
