package fio

import (
	"testing"

	"optanestudy/internal/daxfs"
	"optanestudy/internal/novafs"
	"optanestudy/internal/platform"
	"optanestudy/internal/vfs"
)

func newPlatform(t testing.TB) *platform.Platform {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	return platform.MustNew(cfg)
}

func TestFioOnNova(t *testing.T) {
	p := newPlatform(t)
	ns, _ := p.Optane("nova", 0, 128<<20)
	fs, err := novafs.Mount([]*platform.Namespace{ns}, novafs.DefaultOptions(novafs.Datalog))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Spec{
		Platform: p, FS: fs, Threads: 4, FileSize: 1 << 20, BS: 4096,
		RW: Write, Pattern: Rand, Sync: true, OpsPerThrd: 64, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GBs <= 0 || res.Bytes != 4*64*4096 {
		t.Fatalf("result = %+v", res)
	}
}

func TestFioOnDax(t *testing.T) {
	p := newPlatform(t)
	ns, _ := p.Optane("dax", 0, 256<<20)
	fs, err := daxfs.Mount(ns, daxfs.DefaultConfig(daxfs.Ext4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Spec{
		Platform: p, FS: fs, Threads: 2, FileSize: 1 << 20, BS: 4096,
		RW: Read, Pattern: Seq, OpsPerThrd: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GBs <= 0 {
		t.Fatalf("no bandwidth: %+v", res)
	}
}

func TestFioReadsFasterThanSyncWrites(t *testing.T) {
	run := func(rw RW, sync bool) float64 {
		p := newPlatform(t)
		ns, _ := p.Optane("nova", 0, 128<<20)
		fs, _ := novafs.Mount([]*platform.Namespace{ns}, novafs.DefaultOptions(novafs.COW))
		res, err := Run(Spec{
			Platform: p, FS: fs, Threads: 4, FileSize: 1 << 20, BS: 4096,
			RW: rw, Pattern: Seq, Sync: sync, OpsPerThrd: 48, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.GBs
	}
	read := run(Read, false)
	write := run(Write, true)
	if read <= write {
		t.Errorf("read %.2f GB/s should beat sync COW write %.2f GB/s", read, write)
	}
}

// TestMultiDIMMNovaComparison runs the Figure 17 configurations. Note a
// documented deviation (DESIGN.md, "Known deviation: Figure 17's write
// rows"): the raw iMC-contention kernel
// reproduces the paper's pinning advantage (lattester.Spread), but through
// the full NOVA+FIO stack our simulator's cross-DIMM queue pooling gives
// the interleaved mount an edge at file-system op granularity. This test
// asserts what the model does claim: both mounts run correctly, deliver
// saturating bandwidth of the same order, and the gap stays bounded.
func TestMultiDIMMNovaComparison(t *testing.T) {
	interleaved := func() float64 {
		p := newPlatform(t)
		ns, _ := p.Optane("nova", 0, 512<<20)
		fs, _ := novafs.Mount([]*platform.Namespace{ns}, novafs.DefaultOptions(novafs.COW))
		res, err := Run(Spec{
			Platform: p, FS: fs, Threads: 12, FileSize: 1 << 20, BS: 4096,
			RW: Write, Pattern: Seq, Sync: true, OpsPerThrd: 48, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.GBs
	}
	pinned := func() float64 {
		p := newPlatform(t)
		var nss []*platform.Namespace
		for i := 0; i < 6; i++ {
			ns, err := p.OptaneNI("z"+string(rune('0'+i)), 0, i, 128<<20)
			if err != nil {
				t.Fatal(err)
			}
			nss = append(nss, ns)
		}
		fs, _ := novafs.Mount(nss, novafs.DefaultOptions(novafs.COW))
		res, err := Run(Spec{
			Platform: p, FS: fs, Threads: 12, FileSize: 1 << 20, BS: 4096,
			RW: Write, Pattern: Seq, Sync: true, OpsPerThrd: 48, Seed: 4,
			CreateFile: func(ctx *platform.MemCtx, name string, thread int) (vfs.File, error) {
				return fs.CreateZone(ctx, name, thread%6)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.GBs
	}
	il := interleaved()
	ni := pinned()
	if il <= 0 || ni <= 0 {
		t.Fatalf("configs failed to run: interleaved=%.2f pinned=%.2f", il, ni)
	}
	ratio := il / ni
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("interleaved/pinned = %.2f (%.2f vs %.2f GB/s): gap out of band", ratio, il, ni)
	}
}
