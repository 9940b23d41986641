// Package scenarios links every scenario-providing package into a binary:
// blank-importing it populates the harness registry with the lattester,
// fio, lsmkv, pmem, pmemkv, service, cluster and figures scenarios.
// cmd/bench and the top-level benchmarks import it so both see one
// identical, complete registry.
package scenarios

import (
	_ "optanestudy/internal/cluster"
	_ "optanestudy/internal/figures"
	_ "optanestudy/internal/fio"
	_ "optanestudy/internal/lattester"
	_ "optanestudy/internal/lsmkv"
	_ "optanestudy/internal/pmem"
	_ "optanestudy/internal/pmemkv"
	_ "optanestudy/internal/service"
)
