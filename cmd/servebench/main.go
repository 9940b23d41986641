// Command servebench drives open-loop traffic against the KV backends
// through the unified harness: single load points (service/kv/pmemkv,
// service/kv/lsmkv), load sweeps that trace the throughput-vs-tail-
// latency curve and its saturation knee (service/kv/sweep-*), and the
// group-commit batch family (service/batch/*) that amortizes one fence
// across a whole drained batch of PUTs.
//
// Usage:
//
//	servebench -list
//	servebench 'service/kv/sweep-pmemkv'
//	servebench -threads 4 -p arrival=burst -p offered=2000 service/kv/pmemkv
//	servebench -p batch=8 -p linger=1000 service/batch/point
//	servebench -format=json -deterministic 'service/kv/*'
package main

import (
	"os"

	"optanestudy/internal/harness"
	_ "optanestudy/internal/scenarios"
)

func main() {
	os.Exit(harness.CLIMain(os.Args[1:], harness.CLIOptions{
		Command:      "servebench",
		Doc:          "open-loop KV serving: latency-under-load points and sweep curves",
		DefaultGlobs: []string{"service/kv/*"},
	}))
}
