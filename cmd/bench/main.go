// Command bench runs the study's registered scenarios on the simulated
// platform through the unified harness: list them, run them by name or
// glob (every registered scenario when none is given), and report the
// results as a table, CSV or the optanestudy-bench/v1 JSON schema.
//
// Usage, one line per scenario family:
//
//	bench -list
//	bench -threads 4 -p op=ntstore -p system=optane-ni lattester/kernel   # LATTester memory kernels
//	bench -format=json -p pinned=true 'fio/*'                             # FIO-style file IO over NOVA
//	bench -ops 4000 'lsmkv/*'                                             # db_bench-style LSM SET
//	bench -threads 12 -p media=dram 'pmemkv/*'                            # PMemKV cmap overwrite
//	bench -ops 120 'pmem/policy/*'                                        # persist policy sweeps
//	bench -p arrival=burst -p offered=2000 service/kv/pmemkv              # open-loop KV serving
//	bench -p batch=8 -p linger=1000 service/batch/point                   # group-commit dispatch
//	bench -p cache=262144 service/cache/point                             # DRAM hot tier
//	bench -threads 8 -p policy=numa-blind -p shards=4 cluster/point       # sharded serving
//	bench 'cluster/failover/*'                                            # replication and failover
//	bench -p quality=full figures/fig4                                    # the paper's figures as TSV
package main

import (
	"os"

	"optanestudy/internal/harness"
	_ "optanestudy/internal/scenarios"
)

func main() { os.Exit(harness.CLIMain(os.Args[1:], os.Stdout, os.Stderr)) }
