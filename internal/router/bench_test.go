package router

import (
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/simclock"
)

// BenchmarkRouterMerge measures the full scatter-gather retrieval at the
// serving defaults of a coordinator (serpd -shards), the topology
// perfbench's cluster-news workload serves: fan-out to three in-process
// shards of two replicas each, one replica attempt per leg under the 2 s
// attempt timeout and the 3-failure/45 s breakers, HTTP round-trip and
// reply frame decode per leg (doc IDs resolved through the router's
// document table), and the deterministic merge of the per-shard rankings.
// This is the router's per-query overhead versus a monolithic in-process
// index lookup.
func BenchmarkRouterMerge(b *testing.B) {
	cl := NewLocalCluster(ClusterConfig{
		Shards:           3,
		Replicas:         2,
		Engine:           testConfig(1),
		Clock:            simclock.Wall(),
		ShardTimeout:     2 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  45 * time.Second,
	})
	req := engine.RetrieveRequest{Query: "coffee", K: 48}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cl.Client.Retrieve(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkShardFrame measures the reply wire codec on a full page's
// candidates: the shard encodes one 48-hit frame into a fresh buffer, as
// its handler does per reply, and the router decodes it, resolving every
// doc ID through its document table.
func BenchmarkShardFrame(b *testing.B) {
	fx := newFrameFixture()
	hits := fx.shard.idx.Search("local", defaultShardK)
	if len(hits) != defaultShardK {
		b.Fatalf("fixture query has %d hits, want %d", len(hits), defaultShardK)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := appendFrame(make([]byte, 0, frameHeaderLen+frameHitLen*len(hits)), 0, 1, fx.corpus, hits)
		sr, err := decodeFrame(frame, fx.docs)
		if err != nil || len(sr.Hits) != len(hits) {
			b.Fatalf("decoded %d hits, err %v", len(sr.Hits), err)
		}
	}
}
