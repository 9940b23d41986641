package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// SpecResult pairs one input spec's aggregated outcome with its error; a
// batch run never lets one failing spec discard its siblings' results.
type SpecResult struct {
	Result *Result
	Err    error
}

// errSkipped marks a job that was not executed because a sibling job of
// the same spec had already failed.
var errSkipped = errors.New("harness: skipped after sibling failure")

// RunSpecs executes every (spec, trial) of the batch as independent jobs
// over a bounded worker pool of the given width (<= 0 means GOMAXPROCS)
// and returns one SpecResult per input spec, in input order.
//
// Output is schedule-independent: each job's RNG seed is derived from the
// resolved spec and trial index (never from run order), every trial builds
// its own platform, and trials land in their Result by index — so
// RunSpecs(specs, 1) and RunSpecs(specs, N) produce identical results, and
// deterministic reports are byte-identical. Scenarios must honor the
// statelessness contract in DESIGN.md for this to hold.
func RunSpecs(specs []Spec, parallel int) []SpecResult {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	out := make([]SpecResult, len(specs))
	var jobs []job
	// perSpec[i] collects spec i's measured trials by trial index.
	perSpec := make([][]Trial, len(specs))
	resolved := make([]Spec, len(specs))
	for i, spec := range specs {
		sc, ok := Lookup(spec.Scenario)
		if !ok {
			out[i].Err = fmt.Errorf("harness: unknown scenario %q", spec.Scenario)
			continue
		}
		spec = spec.withDefaults(sc.Defaults)
		resolved[i] = spec
		perSpec[i] = make([]Trial, spec.Trials)
		jobs = append(jobs, buildJobs(sc, spec, i)...)
	}

	workers := parallel
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// Stamp each resolved spec with the width left over for a nested
	// batch: the pool's workers split the requested cap, so a scenario
	// that fans out (figures/*) never pushes total concurrency past
	// `parallel` — a lone figure job gets the whole width, a full sweep
	// runs its figures' datapoints serially inside the outer pool.
	nested := 1
	if len(jobs) > 0 && parallel/len(jobs) > 1 {
		nested = parallel / len(jobs)
	}
	for i := range resolved {
		resolved[i].Parallel = nested
	}
	for i := range jobs {
		jobs[i].spec.Parallel = nested
	}

	// Each worker writes only its own job's slots. failed lets workers
	// skip the remaining jobs of a spec that already has an error rather
	// than burn wall-clock on a doomed spec. Results stay byte-identical
	// (a failed spec reports no result at any width); only the stderr
	// error message can differ when several trials of one spec would each
	// fail with distinct errors.
	trials := make([]Trial, len(jobs))
	errs := make([]error, len(jobs))
	failed := make([]atomic.Bool, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				if failed[jobs[idx].specIdx].Load() {
					errs[idx] = errSkipped
					continue
				}
				trials[idx], errs[idx] = jobs[idx].execute()
				if errs[idx] != nil {
					failed[jobs[idx].specIdx].Store(true)
				}
			}
		}()
	}
	for idx := range jobs {
		next <- idx
	}
	close(next)
	wg.Wait()

	// Reduce in job order: the first real error of a spec (always its
	// lowest-index failure) wins, skipped siblings are ignored.
	for idx, j := range jobs {
		i := j.specIdx
		if out[i].Err != nil || errs[idx] == errSkipped {
			continue
		}
		if errs[idx] != nil {
			out[i].Err = fmt.Errorf("%s: trial %d: %w", j.sc.Name, j.trial, errs[idx])
			continue
		}
		perSpec[i][j.trial] = trials[idx]
	}
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		res := &Result{Name: resolved[i].Scenario, Spec: resolved[i], Trials: perSpec[i]}
		res.finish()
		out[i].Result = res
	}
	return out
}
