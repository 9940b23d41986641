#!/bin/sh
# Determinism lint: simulation code must never read wall-clock time or the
# global math/rand stream — results have to derive only from sim time and
# job-derived seeds, or byte-identity across -parallel widths (and every
# CI cmp in this repo) silently breaks.
#
# Scope: non-test sources under internal/ (which covers internal/devstat)
# plus the render/diff CLIs whose output CI cmp-pins byte-for-byte
# (cmd/tracereport, cmd/benchdiff). The one allowlisted site is
# the harness job runner, which stamps wall-clock elapsed time into a
# result field that -deterministic zeroes.
set -eu
cd "$(dirname "$0")/.."

allow='internal/harness/job.go'
scope='internal/ cmd/tracereport cmd/benchdiff'
fail=0

hits=$(grep -rn --include='*.go' --exclude='*_test.go' 'time\.Now(' $scope | grep -v "^$allow:" || true)
if [ -n "$hits" ]; then
    echo "determinism lint: wall-clock time.Now in simulation code:" >&2
    echo "$hits" >&2
    fail=1
fi

hits=$(grep -rn --include='*.go' --exclude='*_test.go' '"math/rand"' $scope || true)
if [ -n "$hits" ]; then
    echo "determinism lint: math/rand import in simulation code (use the seeded workload RNGs):" >&2
    echo "$hits" >&2
    fail=1
fi

exit $fail
