// Command clusterbench drives open-loop traffic through the topology-aware
// sharded serving layer: a deterministic hash router over N shard replicas,
// each pinned to a (socket, DIMM-set) placement, with per-policy load
// sweeps that trace throughput-vs-tail-latency curves and their knees
// (cluster/sweep-*), single load points (cluster/point), the
// shifting-hotspot skew run (cluster/hotspot), and the group-commit batch
// sweep (cluster/sweep-batch) that repeats the placement grid at batch
// depths 1/8/32.
//
// Usage:
//
//	clusterbench -list
//	clusterbench 'cluster/sweep-*'
//	clusterbench -threads 8 -p policy=numa-blind -p shards=4 cluster/point
//	clusterbench -p batch=8 -p linger=1000 cluster/point
//	clusterbench -format=json -deterministic 'cluster/*'
package main

import (
	"os"

	"optanestudy/internal/harness"
	_ "optanestudy/internal/scenarios"
)

func main() {
	os.Exit(harness.CLIMain(os.Args[1:], harness.CLIOptions{
		Command:      "clusterbench",
		Doc:          "sharded KV serving across placement policies: per-policy latency-under-load sweeps",
		DefaultGlobs: []string{"cluster/*"},
	}))
}
