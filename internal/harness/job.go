package harness

import (
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"time"
)

// job is one independent, deterministic unit of work: a single measured
// trial of one fully resolved spec. A job carries everything a worker
// needs, so the set of jobs from a sweep can execute in any order —
// serially or across a pool — and produce the same per-trial results.
type job struct {
	sc   Scenario
	spec Spec // fully resolved; Seed is this trial's derived seed
	// specIdx is the index of the originating spec in the batch; results
	// and errors are reported in this order no matter when jobs finish.
	specIdx int
	// trial is the trial index within the spec.
	trial int
}

// deriveSeed computes the RNG seed for one trial of a resolved spec by
// hashing the spec's identity — scenario name, resolved params, the
// measurement knobs, and the base seed — together with the trial index
// (FNV-1a). A trial's seed therefore depends only on what is being
// measured and which trial it is, never on where in a sweep the trial
// happens to execute, so any schedule (serial, shuffled, parallel)
// reproduces the same per-trial randomness.
func deriveSeed(spec Spec, trial int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, spec.Scenario)
	keys := make([]string, 0, len(spec.Params))
	for k := range spec.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		io.WriteString(h, "\x00p\x00"+k+"\x00"+spec.Params[k])
	}
	for _, v := range []int64{
		int64(spec.Threads), int64(spec.Socket), int64(spec.Duration),
		int64(spec.Ops), int64(spec.Warmup), int64(spec.Seed),
	} {
		io.WriteString(h, "\x00"+strconv.FormatInt(v, 10))
	}
	io.WriteString(h, "\x00trial\x00"+strconv.Itoa(trial))
	return h.Sum64()
}

// buildJobs expands one resolved spec (specs[specIdx] after withDefaults)
// into its trial jobs.
func buildJobs(sc Scenario, spec Spec, specIdx int) []job {
	jobs := make([]job, spec.Trials)
	for i := range jobs {
		jspec := spec
		jspec.Seed = deriveSeed(spec, i)
		jobs[i] = job{sc: sc, spec: jspec, specIdx: specIdx, trial: i}
	}
	return jobs
}

// execute runs the job's single trial, stamps wall time, and derives the
// standard rates. It touches no state outside the job, which is what makes
// the scheduler free to run jobs concurrently.
func (j job) execute() (Trial, error) {
	start := time.Now()
	tr, err := j.sc.Run(j.spec)
	if err != nil {
		return Trial{}, err
	}
	tr.Wall = time.Since(start)
	if tr.GBs == 0 && tr.Bytes > 0 && tr.Sim > 0 {
		tr.GBs = float64(tr.Bytes) / tr.Sim.Seconds() / 1e9
	}
	if tr.OpsPerSec == 0 && tr.Ops > 0 && tr.Sim > 0 {
		tr.OpsPerSec = float64(tr.Ops) / tr.Sim.Seconds()
	}
	return tr, nil
}
