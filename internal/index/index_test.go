package index

import (
	"strings"
	"testing"

	"geoserp/internal/queries"
	"geoserp/internal/webcorpus"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Coffee", []string{"coffee"}},
		{"High School", []string{"high", "school"}},
		{"Is Global Warming Real", []string{"global", "warming", "real"}},
		{"Chick-fil-A!", []string{"chick", "fil"}},
		{"", nil},
		{"the of and", nil},
		{"KFC 2015", []string{"kfc", "2015"}},
		// Non-ASCII letters are letters: accented names survive as whole
		// tokens instead of being split at every accent (the old
		// [a-z0-9]-only tokenizer turned "Café" into "caf").
		{"Café", []string{"café"}},
		{"Zürich Öffnungszeiten", []string{"zürich", "öffnungszeiten"}},
		{"CAFÉ ZÜRICH", []string{"café", "zürich"}},
		{"søndre gate 4", []string{"søndre", "gate", "4"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func doc(url, title, snippet, topic string) webcorpus.Doc {
	return webcorpus.Doc{URL: url, Title: title, Snippet: snippet, Topic: topic, Authority: 0.5}
}

func TestSearchBasicRelevance(t *testing.T) {
	ix := build([]webcorpus.Doc{
		doc("https://a/", "Coffee House Guide", "All about coffee.", "coffee"),
		doc("https://b/", "Tea Emporium", "All about tea.", "tea"),
		doc("https://c/", "Coffee and Tea", "Both beverages.", "beverages"),
	})
	hits := ix.Search("coffee", 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(hits))
	}
	if hits[0].Doc.URL != "https://a/" {
		t.Fatalf("top hit = %s, want https://a/", hits[0].Doc.URL)
	}
}

func TestSearchMultiTokenPrecision(t *testing.T) {
	ix := build([]webcorpus.Doc{
		doc("https://hs/", "Lincoln High School", "A public high school.", "high-school"),
		doc("https://s/", "Lincoln School", "A public school.", "school"),
		doc("https://h/", "High Tower", "A very high tower.", "tower"),
	})
	hits := ix.Search("high school", 10)
	if len(hits) == 0 || hits[0].Doc.URL != "https://hs/" {
		t.Fatalf("top hit for 'high school' = %+v", hits)
	}
	// Full-coverage docs must outrank half-coverage docs.
	for _, h := range hits[1:] {
		if h.Score >= hits[0].Score {
			t.Fatalf("partial match outranked full match: %+v", hits)
		}
	}
}

func TestSearchHalfCoverageFilter(t *testing.T) {
	ix := build([]webcorpus.Doc{
		doc("https://x/", "Warming Trends", "Warming only.", "x"),
	})
	// One of three meaningful tokens matches -> filtered out.
	if hits := ix.Search("global warming hoax debate", 10); len(hits) != 0 {
		t.Fatalf("low-coverage doc returned: %+v", hits)
	}
}

// TestSearchRepeatedQueryTokens is the regression test for the
// double-counting bug: repeated query terms accumulated IDF once per
// occurrence and pushed coverage past 1.0, so "pizza pizza" scored a
// one-term document as if it fully covered a two-term query. Coverage is
// now distinct-terms-matched / distinct-terms-queried, making a repeated
// query exactly equivalent to its deduplicated form.
func TestSearchRepeatedQueryTokens(t *testing.T) {
	ix := build([]webcorpus.Doc{
		doc("https://p/", "Pizza Palace", "Best pizza in town.", "pizza"),
		doc("https://q/", "Cheap Pizza Joint", "Cheap pizza daily.", "pizza"),
	})

	single := ix.Search("pizza", 10)
	repeated := ix.Search("pizza pizza", 10)
	if len(single) != len(repeated) {
		t.Fatalf("repeated-term query returned %d hits, single-term %d", len(repeated), len(single))
	}
	for i := range single {
		if repeated[i].Doc.URL != single[i].Doc.URL || repeated[i].Score != single[i].Score {
			// The old code produced repeated[i].Score == 2x the IDF mass of
			// single[i].Score here (double-counted accumulation).
			t.Fatalf("rank %d: repeated query gave {%s %v}, single gave {%s %v}",
				i, repeated[i].Doc.URL, repeated[i].Score, single[i].Doc.URL, single[i].Score)
		}
	}

	// A doc matching one of two DISTINCT terms must still fail the
	// half-coverage gate even when the matched term is repeated in the
	// query: "pizza pizza hovercraft" has two distinct terms and the doc
	// covers one — exactly the boundary, kept; with a third distinct term
	// it is filtered. The old matched-occurrence counting let the repeat
	// masquerade as extra coverage.
	if hits := ix.Search("pizza pizza hovercraft submarine", 10); len(hits) != 0 {
		t.Fatalf("one of three distinct terms matched but doc survived the coverage gate: %+v", hits)
	}
	// Coverage itself must cap at 1.0: the repeated query's top score
	// equals the single query's, never above it.
	if repeated[0].Score > single[0].Score {
		t.Fatalf("repeated terms inflated the score: %v > %v", repeated[0].Score, single[0].Score)
	}
}

// TestSearchNonASCIIEndToEnd drives accented titles through build and
// Search: a custom world naming businesses "Café" or "Zürich" must be
// retrievable by those words (the old ASCII-only tokenizer shredded them).
func TestSearchNonASCIIEndToEnd(t *testing.T) {
	ix := build([]webcorpus.Doc{
		doc("https://cafe/", "Café Zürich", "The best café near the lake.", "café"),
		doc("https://caf/", "Caf Industries", "Industrial caf supplies.", "caf"),
	})

	hits := ix.Search("café", 10)
	if len(hits) != 1 || hits[0].Doc.URL != "https://cafe/" {
		t.Fatalf("Search(café) = %+v, want the café doc only", hits)
	}
	// Case-folding applies to non-ASCII letters too.
	if hits := ix.Search("CAFÉ ZÜRICH", 10); len(hits) != 1 || hits[0].Doc.URL != "https://cafe/" {
		t.Fatalf("Search(CAFÉ ZÜRICH) = %+v, want the café doc", hits)
	}
	// The accented word no longer collides with its mangled ASCII prefix.
	if hits := ix.Search("caf", 10); len(hits) != 1 || hits[0].Doc.URL != "https://caf/" {
		t.Fatalf("Search(caf) = %+v, want the caf doc only", hits)
	}
}

func TestSearchEmptyAndDegenerate(t *testing.T) {
	ix := build([]webcorpus.Doc{
		doc("https://a/", "Coffee", "Coffee.", "coffee"),
	})
	if hits := ix.Search("", 10); hits != nil {
		t.Fatalf("empty query returned %v", hits)
	}
	if hits := ix.Search("the of", 10); hits != nil {
		t.Fatalf("stopword query returned %v", hits)
	}
	if hits := ix.Search("coffee", 0); hits != nil {
		t.Fatalf("k=0 returned %v", hits)
	}
	if hits := ix.Search("zzzzz", 10); hits != nil {
		t.Fatalf("no-match query returned %v", hits)
	}
}

func TestSearchKLimit(t *testing.T) {
	var docs []webcorpus.Doc
	for i := 0; i < 20; i++ {
		docs = append(docs, doc("https://d/"+strings.Repeat("x", i+1), "Coffee Page", "About coffee.", "coffee"))
	}
	ix := build(docs)
	if hits := ix.Search("coffee", 5); len(hits) != 5 {
		t.Fatalf("k=5 returned %d hits", len(hits))
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	mk := func() *Index {
		return build([]webcorpus.Doc{
			doc("https://b/", "Coffee", "Coffee.", "coffee"),
			doc("https://a/", "Coffee", "Coffee.", "coffee"),
		})
	}
	h1 := mk().Search("coffee", 10)
	h2 := mk().Search("coffee", 10)
	for i := range h1 {
		if h1[i].Doc.URL != h2[i].Doc.URL {
			t.Fatal("tie-break not deterministic")
		}
	}
	if h1[0].Doc.URL != "https://a/" {
		t.Fatalf("ties not broken by URL: %v", h1[0].Doc.URL)
	}
}

func TestBuildFromWebCoversCorpus(t *testing.T) {
	w := webcorpus.NewWeb(1, queries.StudyCorpus(), webcorpus.DefaultRegions())
	ix := BuildFromWeb(w)
	if ix.Len() != w.Size() {
		t.Fatalf("index has %d docs, web has %d", ix.Len(), w.Size())
	}
	if ix.Vocabulary() == 0 {
		t.Fatal("empty vocabulary")
	}
	// Every study query must retrieve at least 5 documents, and the top
	// hit must be on-topic.
	for _, q := range queries.StudyCorpus().All() {
		hits := ix.Search(q.Term, 30)
		if len(hits) < 5 {
			t.Fatalf("query %q retrieved only %d docs", q.Term, len(hits))
		}
	}
}

func TestBuildFromWebTopicalPrecision(t *testing.T) {
	w := webcorpus.NewWeb(1, queries.StudyCorpus(), webcorpus.DefaultRegions())
	ix := BuildFromWeb(w)
	// For distinctive queries the top hits should be about that topic.
	for _, term := range []string{"Starbucks", "Barack Obama", "Gay Marriage", "Fracking"} {
		q, _ := queries.StudyCorpus().ByTerm(term)
		hits := ix.Search(term, 5)
		onTopic := 0
		for _, h := range hits {
			if h.Doc.Topic == q.ID() {
				onTopic++
			}
		}
		if onTopic < 3 {
			t.Fatalf("query %q: only %d/5 top hits on topic %q", term, onTopic, q.ID())
		}
	}
}

func TestSearchConcurrentAfterFreeze(t *testing.T) {
	w := webcorpus.NewWeb(1, queries.StudyCorpus(), webcorpus.DefaultRegions())
	ix := BuildFromWeb(w)
	done := make(chan bool, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				ix.Search("coffee shop", 10)
			}
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
