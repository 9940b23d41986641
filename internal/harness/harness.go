// Package harness is the unified benchmark runner behind every measurement
// in the repository. Packages self-register runnable scenarios
// (harness.Register), a driver expands every Spec into independent
// (spec, trial) jobs — each against a freshly constructed simulated
// platform, with its RNG seed derived from the resolved spec and trial
// index — executes them across a bounded worker pool (RunSpecs), and
// pluggable reporters render the aggregated results as a human table, CSV,
// or a stable JSON schema suitable for machine-readable perf tracking.
// Because jobs are stateless and seeds are schedule-independent, output is
// byte-identical at any parallelism.
//
// cmd/bench is a one-line main over the registry (CLIMain), the
// figure runners in internal/figures and the LATTester sweep produce their
// datapoints through harness trials, and bench_test.go drives the same
// specs — one run/measure/report spine for the whole study, in the spirit
// of the paper's LATTester toolkit. See DESIGN.md for the architecture and
// the JSON result schema.
package harness
