package lsmkv

import (
	"optanestudy/internal/harness"
	"optanestudy/internal/platform"
)

// Harness scenarios: the Figure 8 db_bench-style SET workload across the
// three persistence strategies. The dram param selects the DRAM-emulation
// arm; Spec.Ops is the measured SET count.
func init() {
	presets := []struct {
		name, doc, mode string
	}{
		{"lsmkv/set-walposix", "LSM SET via volatile memtable + POSIX-style WAL", "wal-posix"},
		{"lsmkv/set-walflex", "LSM SET via volatile memtable + FLEX userspace WAL", "wal-flex"},
		{"lsmkv/set-pmem-memtable", "LSM SET via persistent skiplist memtable, no WAL", "pmem-memtable"},
	}
	for _, p := range presets {
		harness.Register(harness.Scenario{
			Name: p.name,
			Doc:  p.doc,
			Defaults: harness.Defaults{
				Ops: 4000, Seed: 8,
				Params: map[string]string{"mode": p.mode},
			},
			Run: runSet,
		})
	}
}

func runSet(spec harness.Spec) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	mode, err := ParseMode(r.Str("mode", "wal-flex"))
	if err != nil {
		return harness.Trial{}, err
	}
	onDRAM := r.Bool("dram", false)
	llcLines := r.Int("llc_lines", (512<<10)/64) // scaled-down LLC:memtable ratio
	prepop := r.Int("prepopulate", 5*spec.Ops)
	keySize := r.Int("keysize", 20)
	valSize := r.Int("valsize", 100)
	if err := r.Err(); err != nil {
		return harness.Trial{}, err
	}

	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	if llcLines > 0 {
		cfg.LLC.Lines = llcLines
	}
	p := platform.MustNew(cfg)
	defer p.Close()
	res, err := RunSetBench(BenchSpec{
		Platform: p, PMOnDRAM: onDRAM, Mode: mode,
		Ops: spec.Ops, Prepopulate: prepop,
		KeySize: keySize, ValSize: valSize, Seed: spec.Seed,
	})
	if err != nil {
		return harness.Trial{}, err
	}
	return harness.Trial{
		Bytes: res.Ops * int64(keySize+valSize),
		Ops:   res.Ops,
		Sim:   res.Elapsed,
		Metrics: map[string]float64{
			"kops_per_sec": res.KOpsSec,
			"flushes":      float64(res.Flushes),
		},
	}, nil
}
