package harness

// The driver is split across three files: job.go constructs and executes
// independent (spec, trial) jobs with schedule-independent seed derivation,
// sched.go fans the jobs over a bounded worker pool, and aggregate.go
// folds completed trials into per-spec Results. This file holds the
// single-spec entry point.

// Run resolves the spec against its scenario's defaults, executes the
// measured trials, and aggregates. It is equivalent to a one-spec
// RunSpecs batch on a single worker.
func Run(spec Spec) (*Result, error) {
	sr := RunSpecs([]Spec{spec}, 1)[0]
	return sr.Result, sr.Err
}
