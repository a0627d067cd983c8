package router

import (
	"testing"
	"time"

	"geoserp/internal/engine"
	"geoserp/internal/simclock"
)

// BenchmarkRouterMerge measures the full scatter-gather retrieval: fan-out
// to three in-process shards, HTTP round-trip and reply frame decode per
// shard (doc IDs resolved through the router's document table), and the
// deterministic merge of the per-shard rankings. This is the router's
// per-query overhead versus a monolithic in-process index lookup.
func BenchmarkRouterMerge(b *testing.B) {
	cl := NewLocalCluster(ClusterConfig{
		Shards: 3,
		Engine: testConfig(1),
		Clock:  simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)),
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
