// Command coteried hosts one coterie replica node as a network daemon:
// the replica protocol, co-located coordinators for the items it
// replicates, and the capi client API, all served by the tcpnet
// transport. A cluster is N coteried processes sharing one address book;
// each daemon accepts client reads, writes and epoch checks for the items
// of the shards it owns, and items materialize on first touch. The
// default is one shard replicated by -rf nodes (default 3), so a
// three-node cluster is one coterie in which any daemon serves any item;
// -shards S partitions the keyspace into S coteries.
//
//	coteried -node 0 -cluster 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002
//
// On startup the daemon prints "READY <node> <addr>" to stdout once it is
// serving (with -admin, followed by "admin=<addr>"); spawning harnesses
// such as cmd/loadgen -net tcp wait for that line. Metrics, traces and
// pprof profiles are served only by the admin plane (-admin ADDR:
// /metrics, /traces, /healthz, /debug/pprof). SIGINT/SIGTERM shut it down
// gracefully.
//
// A restarted daemon has lost its in-memory replica state; restart it
// with -recovering so it rejoins as the paper's recovering replica
// (excluded from quorums until an epoch change readmits it and
// propagation rebuilds its value) instead of silently serving stale data.
// See internal/daemon for the full flag set and behavior.
package main

import (
	"fmt"
	"os"

	"coterie/internal/daemon"
)

func main() {
	if err := daemon.RunMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coteried:", err)
		os.Exit(1)
	}
}
