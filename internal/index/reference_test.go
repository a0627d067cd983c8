package index

import (
	"math"
	"slices"
	"sort"
	"testing"

	"geoserp/internal/queries"
)

// referenceSearch is a map-based TF-IDF scorer with Search's contract,
// kept as the reference that Search's dense accumulator must reproduce bit
// for bit: per-document scores summed in query-token order, the coverage
// filter, and a full sort by (score desc, URL asc) before truncating to k.
func referenceSearch(ix *Index, query string, k int) []Hit {
	if k <= 0 {
		return nil
	}
	qTokens := distinct(Tokenize(query))
	if len(qTokens) == 0 {
		return nil
	}
	n := float64(ix.numDocs())
	scores := make(map[int32]float64)
	matched := make(map[int32]int)
	for _, t := range qTokens {
		plist := ix.postings[t]
		docFreq := ix.docFreq(t, len(plist))
		if docFreq == 0 {
			continue
		}
		idf := math.Log(1 + n/float64(docFreq))
		for _, p := range plist {
			scores[p.docID] += idf * float64(p.weight)
			matched[p.docID]++
		}
	}
	if len(scores) == 0 {
		return nil
	}
	ids := make([]int32, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	hits := make([]Hit, 0, len(ids))
	for _, id := range ids {
		if matched[id]*2 < len(qTokens) || ix.docNorm[id] == 0 {
			continue
		}
		coverage := float64(matched[id]) / float64(len(qTokens))
		hits = append(hits, Hit{
			Doc:   &ix.docs[id],
			Score: (scores[id] / ix.docNorm[id]) * (0.5 + 0.5*coverage) * coverage,
			ID:    id,
		})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc.URL < hits[j].Doc.URL
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// TestSearchMatchesReference checks Search against referenceSearch for
// every study term, on the full index and on each view of a 3-way shard
// split: same documents, same order, bit-equal scores, and nil exactly
// when the reference is nil (shards encode nil and empty differently).
func TestSearchMatchesReference(t *testing.T) {
	ix, _ := buildStudyIndex(t)
	views := append([]*Index{ix}, shardBy(ix, 3)...)
	terms := queries.StudyCorpus().All()
	for vi, v := range views {
		for _, q := range terms {
			for _, k := range []int{1, 10, 48} {
				got, want := v.Search(q.Term, k), referenceSearch(v, q.Term, k)
				if (got == nil) != (want == nil) || len(got) != len(want) {
					t.Fatalf("view %d %q k=%d: %d hits (nil %v), reference %d (nil %v)",
						vi, q.Term, k, len(got), got == nil, len(want), want == nil)
				}
				for i := range want {
					if got[i].Doc != want[i].Doc || got[i].ID != want[i].ID ||
						math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("view %d %q k=%d rank %d: {%s %v}, reference {%s %v}",
							vi, q.Term, k, i, got[i].Doc.URL, got[i].Score, want[i].Doc.URL, want[i].Score)
					}
				}
			}
		}
	}
}
