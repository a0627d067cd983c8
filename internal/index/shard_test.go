package index

import (
	"math"
	"slices"
	"strings"
	"testing"

	"geoserp/internal/detrand"
	"geoserp/internal/queries"
	"geoserp/internal/webcorpus"
)

// buildStudyIndex builds the full study-corpus index once per test.
func buildStudyIndex(t *testing.T) (*Index, *webcorpus.Web) {
	t.Helper()
	w := webcorpus.NewWeb(1, queries.StudyCorpus(), webcorpus.DefaultRegions())
	return BuildFromWeb(w), w
}

// shardBy partitions ix into n shards by hashing document URLs.
func shardBy(ix *Index, n int) []*Index {
	shards := make([]*Index, n)
	for i := range shards {
		i := i
		shards[i] = ix.Shard(func(d webcorpus.Doc) bool {
			return int(detrand.Hash("shardtest", d.URL)%uint64(n)) == i
		})
	}
	return shards
}

// TestShardPartitionIsExhaustiveAndDisjoint verifies every document lands
// on exactly one shard.
func TestShardPartitionIsExhaustiveAndDisjoint(t *testing.T) {
	ix, w := buildStudyIndex(t)
	for _, n := range []int{1, 2, 3, 5} {
		shards := shardBy(ix, n)
		total := 0
		for _, s := range shards {
			total += s.Len()
		}
		if total != w.Size() {
			t.Fatalf("n=%d: shard sizes sum to %d, corpus has %d docs", n, total, w.Size())
		}
	}
}

// TestShardScoresMatchMonolith is the property the cluster merge relies
// on: a shard scores its documents EXACTLY as the full index does (global
// IDF and norms), so the union of per-shard top-k lists, re-sorted with
// the same tie-break, reproduces the monolithic ranking bit for bit — at
// any shard count.
func TestShardScoresMatchMonolith(t *testing.T) {
	ix, _ := buildStudyIndex(t)
	terms := []string{"Coffee", "High School", "Barack Obama", "gun control", "Airport"}
	const k = 48
	for _, n := range []int{1, 2, 3, 4} {
		shards := shardBy(ix, n)
		for _, term := range terms {
			want := ix.Search(term, k)
			var union []Hit
			for _, s := range shards {
				union = append(union, s.Search(term, k)...)
			}
			merged := MergeHits(union, k)
			if len(merged) != len(want) {
				t.Fatalf("n=%d %q: merged %d hits, monolith %d", n, term, len(merged), len(want))
			}
			for i := range want {
				if merged[i].Doc.URL != want[i].Doc.URL || merged[i].ID != want[i].ID {
					t.Fatalf("n=%d %q: rank %d is %s (ID %d), monolith has %s (ID %d)",
						n, term, i, merged[i].Doc.URL, merged[i].ID, want[i].Doc.URL, want[i].ID)
				}
				if math.Float64bits(merged[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("n=%d %q: rank %d score %v differs from monolith %v (must be bit-identical)",
						n, term, i, merged[i].Score, want[i].Score)
				}
			}
		}
	}
}

// TestShardHonoursCoverageFilter checks that a shard applies the same
// distinct-term coverage filter as the monolith: the matched-term counts
// of a retained document are not diluted by partitioning.
func TestShardHonoursCoverageFilter(t *testing.T) {
	ix := build([]webcorpus.Doc{
		doc("https://hs/", "Lincoln High School", "A public high school.", "high-school"),
		doc("https://x/", "Tower Guide", "A very high tower.", "tower"),
	})
	all := ix.Shard(func(webcorpus.Doc) bool { return true })
	want := ix.Search("high school", 10)
	hits := all.Search("high school", 10)
	if len(hits) != len(want) {
		t.Fatalf("all-docs shard returned %d hits, monolith %d", len(hits), len(want))
	}
	for i := range want {
		if hits[i].Doc.URL != want[i].Doc.URL || hits[i].Score != want[i].Score {
			t.Fatalf("rank %d: shard {%s %v} diverged from monolith {%s %v}",
				i, hits[i].Doc.URL, hits[i].Score, want[i].Doc.URL, want[i].Score)
		}
	}
	// The full-coverage doc outranks the half-coverage graze on the shard
	// exactly as on the monolith.
	if hits[0].Doc.URL != "https://hs/" {
		t.Fatalf("shard top hit = %s, want https://hs/", hits[0].Doc.URL)
	}
	none := ix.Shard(func(webcorpus.Doc) bool { return false })
	if hits := none.Search("high school", 10); hits != nil {
		t.Fatalf("empty shard returned hits: %+v", hits)
	}
}

var searchSink []Hit

// BenchmarkIndexSearch measures one Search on the full study index with
// the engine's k = 48, cycling through all 240 study terms.
func BenchmarkIndexSearch(b *testing.B) {
	ix := BuildFromWeb(webcorpus.NewWeb(1, queries.StudyCorpus(), webcorpus.DefaultRegions()))
	terms := queries.StudyCorpus().All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchSink = ix.Search(terms[i%len(terms)].Term, 48)
	}
}

// TestDocTableAndFingerprint pins what the cluster wire relies on: hit IDs
// index the DocsOf table, shard views share the full table, and the
// fingerprint covers every field of every document.
func TestDocTableAndFingerprint(t *testing.T) {
	ix, w := buildStudyIndex(t)
	docs := ix.Docs()
	if !slices.Equal(docs, DocsOf(w)) {
		t.Fatal("index table differs from DocsOf")
	}
	for _, h := range shardBy(ix, 3)[1].Search("Coffee", 48) {
		if docs[h.ID] != *h.Doc {
			t.Fatalf("hit ID %d names %s, hit is %s", h.ID, docs[h.ID].URL, h.Doc.URL)
		}
	}
	for i, s := range shardBy(ix, 3) {
		if sd := s.Docs(); len(sd) != len(docs) || &sd[0] != &docs[0] {
			t.Fatalf("shard %d does not share the full document table", i)
		}
	}

	base := webcorpus.Doc{URL: "u", Title: "ab", Snippet: "c", Kind: 1, Topic: "t", Authority: 0.5, Region: "ohio"}
	want := Fingerprint([]webcorpus.Doc{base})
	for name, edit := range map[string]func(d *webcorpus.Doc){
		"URL":       func(d *webcorpus.Doc) { d.URL = "v" },
		"Title":     func(d *webcorpus.Doc) { d.Title = "ax" },
		"Snippet":   func(d *webcorpus.Doc) { d.Snippet = "x" },
		"Kind":      func(d *webcorpus.Doc) { d.Kind = 2 },
		"Topic":     func(d *webcorpus.Doc) { d.Topic = "x" },
		"Authority": func(d *webcorpus.Doc) { d.Authority = math.Nextafter(0.5, 1) },
		"Region":    func(d *webcorpus.Doc) { d.Region = "" },
		"boundary":  func(d *webcorpus.Doc) { d.Title, d.Snippet = "a", "bc" },
	} {
		d := base
		edit(&d)
		if Fingerprint([]webcorpus.Doc{d}) == want {
			t.Errorf("changing %s leaves the fingerprint unchanged", name)
		}
	}
	if Fingerprint([]webcorpus.Doc{base, base}) == want {
		t.Error("a second document leaves the fingerprint unchanged")
	}
}

// TestDocTableInURLOrder pins the order MergeHits's ID tie-break relies
// on: a built table is sorted by URL, documents with equal URLs keep
// their input order, and the study table holds every document once.
func TestDocTableInURLOrder(t *testing.T) {
	ix, w := buildStudyIndex(t)
	docs := ix.Docs()
	if len(docs) != w.Size() {
		t.Fatalf("table has %d documents, web has %d", len(docs), w.Size())
	}
	if !slices.IsSortedFunc(docs, func(a, b webcorpus.Doc) int { return strings.Compare(a.URL, b.URL) }) {
		t.Fatal("study document table is not in URL order")
	}

	dup := build([]webcorpus.Doc{
		doc("https://c/", "Second C", "Coffee.", "coffee"),
		doc("https://a/", "Only A", "Coffee.", "coffee"),
		doc("https://c/", "First C", "Coffee.", "coffee"),
		doc("https://b/", "Only B", "Coffee.", "coffee"),
	})
	var got []string
	for _, d := range dup.Docs() {
		got = append(got, d.Title)
	}
	if want := []string{"Only A", "Only B", "Second C", "First C"}; !slices.Equal(got, want) {
		t.Fatalf("table order = %q, want %q", got, want)
	}
}

// TestHitsPointIntoDocTable checks that every hit, on the full index and
// on each shard view, points at its own entry of the one shared table —
// the same document, not an equal copy — for every study term.
func TestHitsPointIntoDocTable(t *testing.T) {
	ix, _ := buildStudyIndex(t)
	docs := ix.Docs()
	views := append([]*Index{ix}, shardBy(ix, 3)...)
	for vi, v := range views {
		for _, q := range queries.StudyCorpus().All() {
			for _, h := range v.Search(q.Term, 48) {
				if h.Doc != &docs[h.ID] {
					t.Fatalf("view %d %q: hit ID %d (%s) does not point at table entry %d",
						vi, q.Term, h.ID, h.Doc.URL, h.ID)
				}
			}
		}
	}
}
