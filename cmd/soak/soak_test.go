package main

import (
	"bytes"
	"testing"
)

// TestClusterSoakInvariantsAndDeterminism runs the soak against the full
// replicated topology (router + 3 shards x 2 replicas, replica 0 of every
// shard dark for a 26-hour window) twice with the same seed: both runs
// must hold every overload-resilience invariant PLUS the replication
// invariants (zero partial pages — every leg fails over to the surviving
// replica — breaker trips re-admitted by the background health prober,
// balanced ledger) and still write byte-identical observations — merge
// determinism under concurrency, failover, overload, and -race all at
// once. A third run with a different seed guards against the comparison
// passing vacuously.
//
// With TraceCapacity set the runs additionally enforce the cluster-tracing
// invariants: every sampled request stitches into a complete cross-process
// trace, fault attribution matches the injected schedule, and the probes'
// /clustertracez and Chrome exports are byte-identical across runs.
func TestClusterSoakInvariantsAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos soak takes a few wall-clock seconds")
	}
	// Half-size campaign: the same 30-wide overload per round, faster CI.
	opts := soakOptions{Seed: 1, Terms: 2, TraceCapacity: 1 << 17}

	first, err := runSoak(opts)
	if err != nil {
		t.Fatalf("first cluster soak run violated invariants: %v", err)
	}
	if first.RouterRetrievals == 0 {
		t.Fatal("cluster soak issued no scatter-gather rounds")
	}
	if first.RouterFailovers == 0 || first.RouterReadmissions == 0 {
		t.Fatalf("replication untested: %d failovers, %d probe re-admissions (want both > 0)",
			first.RouterFailovers, first.RouterReadmissions)
	}
	if len(first.ClusterTraces) == 0 || len(first.ObsTraceIDs) == 0 {
		t.Fatal("cluster soak stitched no traces")
	}
	second, err := runSoak(opts)
	if err != nil {
		t.Fatalf("second cluster soak run violated invariants: %v", err)
	}
	if !bytes.Equal(first.JSONL, second.JSONL) {
		t.Fatalf("same-seed cluster soak runs diverged: %d vs %d JSONL bytes",
			len(first.JSONL), len(second.JSONL))
	}
	// The final /statz snapshot is keyed to the virtual clock, never wall
	// time, so it must be byte-identical across same-seed runs even though
	// each run polled the live endpoint on its own wall-clock cadence.
	if !bytes.Equal(first.StatzJSON, second.StatzJSON) {
		t.Fatalf("same-seed cluster soak runs served different final /statz snapshots:\n%s\nvs\n%s",
			first.StatzJSON, second.StatzJSON)
	}
	// The router's degradation bookkeeping must itself be deterministic:
	// the outage window is a pure function of the campaign clock.
	if first.RouterPartial != second.RouterPartial ||
		first.RouterUnavailable != second.RouterUnavailable {
		t.Fatalf("cluster degradation tallies diverged across same-seed runs: partial %d vs %d, unavailable %d vs %d",
			first.RouterPartial, second.RouterPartial,
			first.RouterUnavailable, second.RouterUnavailable)
	}
	// So must the replication bookkeeping: replica selection is a pure
	// function of trace IDs, and re-admission of the probe schedule.
	if first.RouterFailovers != second.RouterFailovers ||
		first.RouterReadmissions != second.RouterReadmissions {
		t.Fatalf("replication tallies diverged across same-seed runs: failovers %d vs %d, readmissions %d vs %d",
			first.RouterFailovers, second.RouterFailovers,
			first.RouterReadmissions, second.RouterReadmissions)
	}
	// The stitched-trace exports for the quiesced probes must reproduce
	// byte for byte: span IDs, ordering, and timeline are all functions of
	// the seed and the campaign clock, never of scheduling.
	if !bytes.Equal(first.ClusterTracezJSON, second.ClusterTracezJSON) {
		t.Fatalf("same-seed /clustertracez probe bodies diverged:\n%s\nvs\n%s",
			first.ClusterTracezJSON, second.ClusterTracezJSON)
	}
	if !bytes.Equal(first.ClusterChrome, second.ClusterChrome) {
		t.Fatalf("same-seed Chrome trace exports diverged: %d vs %d bytes",
			len(first.ClusterChrome), len(second.ClusterChrome))
	}

	opts.Seed = 7
	other, err := runSoak(opts)
	if err != nil {
		t.Fatalf("seed-7 cluster soak run violated invariants: %v", err)
	}
	if bytes.Equal(first.JSONL, other.JSONL) {
		t.Fatal("different seeds produced identical observations — the determinism check is vacuous")
	}
}
