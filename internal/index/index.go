// Package index implements the retrieval substrate for the Web vertical: a
// tokenizer and an in-memory inverted index with TF-IDF scoring. The engine
// queries it for candidate documents and then applies its own
// personalization and authority layers on top — mirroring the separation
// between retrieval and ranking in production engines.
package index

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"

	"geoserp/internal/webcorpus"
)

// stopwords are dropped during tokenization.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "in": true, "on": true,
	"for": true, "to": true, "and": true, "or": true, "is": true, "at": true,
	"by": true, "with": true, "near": true, "from": true, "as": true,
}

// Tokenize lowercases s, splits on non-letter/non-digit runes, and drops
// stopwords and empty tokens. It is the single tokenization used for both
// documents and queries. Letters are recognized by Unicode class, not the
// ASCII range, so accented place and business names in custom worlds
// ("Café", "Zürich") survive as whole tokens instead of being split into
// garbage at every accent.
func Tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() == 0 {
			return
		}
		tok := cur.String()
		cur.Reset()
		if !stopwords[tok] {
			out = append(out, tok)
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r), unicode.IsDigit(r):
			cur.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}

// posting records one document's weight for a token.
type posting struct {
	docID  int32
	weight float32
}

// Hit is one retrieval result.
type Hit struct {
	// Doc points at the matched document in the index's document table
	// (or, in a cluster router, the router's copy of that table). The
	// table is shared by every hit and every shard view and is read-only:
	// never write through Doc.
	Doc *webcorpus.Doc
	// Score is the TF-IDF relevance (higher is better).
	Score float64
	// ID is Doc's position in the document table — its doc ID. The table
	// is in URL order, so ID order is URL order. A cluster shard sends
	// (ID, Score) pairs; the router resolves IDs in its own copy of the
	// table.
	ID int32
}

// Index is an immutable in-memory inverted index, safe for concurrent
// use. Its document table is in URL order (see build).
type Index struct {
	docs     []webcorpus.Doc
	postings map[string][]posting
	docNorm  []float64 // per-doc weight norm for length normalization
	// df, when non-nil, marks this index as a document-partitioned shard
	// view (see Shard): it carries the FULL corpus's per-token document
	// frequencies while postings holds only the shard's documents, so IDF
	// — and therefore every score — is identical to the unsharded
	// index's. nDocs likewise preserves the full corpus size.
	df    map[string]int
	nDocs int
	// ownedDocs is the number of documents a shard view actually serves
	// (its partition size); unused in a full index.
	ownedDocs int
}

// build indexes a copy of docs put in URL order (equal URLs keep their
// order in docs), which becomes the index's document table: a document's
// ID is its position in URL order.
func build(docs []webcorpus.Doc) *Index {
	ix := &Index{
		docs:     inURLOrder(docs),
		postings: make(map[string][]posting),
		docNorm:  make([]float64, len(docs)),
	}
	for id := range ix.docs {
		ix.post(int32(id))
	}
	return ix
}

// fieldWeights control how strongly each document field counts.
const (
	titleWeight   = 3.0
	topicWeight   = 2.0
	snippetWeight = 1.0
)

// post indexes ix.docs[id], the next document in ID order: its postings
// and its norm.
func (ix *Index) post(id int32) {
	d := &ix.docs[id]
	weights := make(map[string]float64)
	for _, t := range Tokenize(d.Title) {
		weights[t] += titleWeight
	}
	for _, t := range Tokenize(strings.ReplaceAll(d.Topic, "-", " ")) {
		weights[t] += topicWeight
	}
	for _, t := range Tokenize(d.Snippet) {
		weights[t] += snippetWeight
	}
	// Iterate tokens in sorted order: map order would make the float
	// accumulation of the norm (and the posting-list layout) vary from
	// run to run, and a 1-ULP norm difference is enough to flip
	// near-tied rankings between otherwise identical engines.
	tokens := make([]string, 0, len(weights))
	for t := range weights {
		tokens = append(tokens, t)
	}
	sort.Strings(tokens)
	var norm float64
	for _, t := range tokens {
		// Sub-linear tf damping keeps keyword-stuffed long-tail pages
		// from swamping authoritative short titles.
		w := 1 + math.Log(weights[t])
		ix.postings[t] = append(ix.postings[t], posting{docID: id, weight: float32(w)})
		norm += w * w
	}
	ix.docNorm[id] = math.Sqrt(norm)
}

// Docs returns the document table in doc-ID order, which is URL order —
// the full corpus's, in a shard view too. The slice must not be mutated.
func (ix *Index) Docs() []webcorpus.Doc {
	return ix.docs
}

// Len returns the number of searchable documents: the partition size in a
// shard view, the corpus size otherwise.
func (ix *Index) Len() int {
	if ix.df != nil {
		return ix.ownedDocs
	}
	return len(ix.docs)
}

// Search returns the top-k documents for the query by TF-IDF cosine score.
// Ties are broken by doc ID, which is URL order, so results are
// deterministic. Each hit's Doc points into the document table.
//
// Scores accumulate into pooled dense per-document arrays, in query-token
// order; the matching (document, score) pairs are sorted in MergeHits's
// order and only the top k become Hits.
func (ix *Index) Search(query string, k int) []Hit {
	if k <= 0 {
		return nil
	}
	// Query tokens are deduplicated before scoring: coverage means
	// distinct-terms-matched / distinct-terms-queried. Without the dedupe
	// a repeated term accumulated IDF once per occurrence and inflated
	// the coverage ratio past 1.0, so "pizza pizza" ranked single-term
	// documents as if they covered a two-term query in full.
	qTokens := distinct(Tokenize(query))
	if len(qTokens) == 0 {
		return nil
	}
	n := float64(ix.numDocs())
	acc := getAccumulator(len(ix.docs))
	defer putAccumulator(acc)
	for _, t := range qTokens {
		plist := ix.postings[t]
		docFreq := ix.docFreq(t, len(plist))
		if docFreq == 0 {
			continue
		}
		idf := math.Log(1 + n/float64(docFreq))
		for _, p := range plist {
			if acc.matched[p.docID] == 0 {
				acc.touched = append(acc.touched, p.docID)
			}
			acc.scores[p.docID] += idf * float64(p.weight)
			acc.matched[p.docID]++
		}
	}
	if len(acc.touched) == 0 {
		return nil
	}
	for _, id := range acc.touched {
		m := int(acc.matched[id])
		// Require at least half the query tokens to match; a one-token
		// graze against a multi-word query is noise, not relevance.
		if m*2 < len(qTokens) {
			continue
		}
		norm := ix.docNorm[id]
		if norm == 0 {
			continue
		}
		// Coverage bonus: documents matching every query token beat
		// partial matches even when the partial match is term-dense.
		coverage := float64(m) / float64(len(qTokens))
		acc.ranked = append(acc.ranked, scoredDoc{
			id:    id,
			score: (acc.scores[id] / norm) * (0.5 + 0.5*coverage) * coverage,
		})
	}
	slices.SortFunc(acc.ranked, func(a, b scoredDoc) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	top := acc.ranked[:min(k, len(acc.ranked))]
	hits := make([]Hit, len(top))
	for i, sd := range top {
		hits[i] = Hit{Doc: &ix.docs[sd.id], Score: sd.score, ID: sd.id}
	}
	return hits
}

// scoredDoc is one document's final score in Search, before the top k are
// materialized as Hits.
type scoredDoc struct {
	id    int32
	score float64
}

// accumulator is Search's per-query scratch space, sized to the document
// table and reused through accPool. Only the entries listed in touched
// are non-zero, and putAccumulator zeroes exactly those.
type accumulator struct {
	scores  []float64 // per document: sum of idf × posting weight
	matched []int32   // per document: distinct query tokens matched
	touched []int32   // documents with matched > 0, in first-match order
	ranked  []scoredDoc
}

var accPool = sync.Pool{New: func() any { return new(accumulator) }}

// getAccumulator returns a zeroed accumulator covering nDocs documents.
func getAccumulator(nDocs int) *accumulator {
	acc := accPool.Get().(*accumulator)
	if len(acc.scores) < nDocs {
		acc.scores = make([]float64, nDocs)
		acc.matched = make([]int32, nDocs)
	}
	return acc
}

// putAccumulator zeroes the entries acc's query touched and pools it.
func putAccumulator(acc *accumulator) {
	for _, id := range acc.touched {
		acc.scores[id] = 0
		acc.matched[id] = 0
	}
	acc.touched = acc.touched[:0]
	acc.ranked = acc.ranked[:0]
	accPool.Put(acc)
}

// distinct removes duplicate tokens, preserving first-occurrence order (so
// float accumulation order — and therefore scores — is a function of the
// query string alone).
func distinct(tokens []string) []string {
	out := tokens[:0]
	for _, t := range tokens {
		dup := false
		for _, prev := range out {
			if prev == t {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}

// numDocs returns the corpus size used for IDF: the full corpus's even in
// a shard view.
func (ix *Index) numDocs() int {
	if ix.df != nil {
		return ix.nDocs
	}
	return len(ix.docs)
}

// docFreq returns the IDF denominator for a token: the full corpus's
// document frequency in a shard view, the local posting-list length
// otherwise.
func (ix *Index) docFreq(t string, plistLen int) int {
	if ix.df != nil {
		return ix.df[t]
	}
	return plistLen
}

// Vocabulary returns the number of distinct tokens in the index.
func (ix *Index) Vocabulary() int {
	return len(ix.postings)
}

// Shard returns a document-partitioned view of the index: posting lists
// keep only the documents the owns predicate claims, while the IDF
// denominators and per-document norms remain those of the FULL index.
// Scores computed by different shards of the same corpus are therefore
// globally comparable, and the union of every shard's Search results
// reproduces the unsharded ranking bit for bit — the property the SERP
// cluster's scatter-gather merge relies on for byte-identical pages at
// any shard count. The view shares the parent's document table, so its
// hits point into the same documents and carry the same IDs.
func (ix *Index) Shard(owns func(d webcorpus.Doc) bool) *Index {
	shard := &Index{
		docs:     ix.docs,
		docNorm:  ix.docNorm,
		postings: make(map[string][]posting),
		df:       make(map[string]int, len(ix.postings)),
		nDocs:    ix.numDocs(),
	}
	// Which docs the shard owns is decided once per document, not per
	// posting, so a retained document keeps its full token profile (its
	// matched-term counts — and so its coverage — equal the monolith's).
	owned := make([]bool, len(ix.docs))
	var kept int
	for id, d := range ix.docs {
		if owns(d) {
			owned[id] = true
			kept++
		}
	}
	for t, plist := range ix.postings {
		shard.df[t] = ix.docFreq(t, len(plist))
		var pruned []posting
		for _, p := range plist {
			if owned[p.docID] {
				pruned = append(pruned, p)
			}
		}
		if pruned != nil {
			shard.postings[t] = pruned
		}
	}
	shard.ownedDocs = kept
	return shard
}

// MergeHits sorts hits with Search's exact ordering — score descending,
// ties broken by doc ID ascending, which is URL order — and truncates to
// k. It is the single merge used by the cluster router to fold per-shard
// rankings into one list: because shard scores are globally comparable
// (see Shard) and every node numbers the documents alike (see DocsOf),
// merging the union of per-shard top-k lists reproduces the monolithic
// index's top k exactly. The input is sorted in place.
func MergeHits(hits []Hit, k int) []Hit {
	slices.SortFunc(hits, func(a, b Hit) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if k >= 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// DocsOf returns every document in w in doc-ID order: sorted by URL, and
// documents with equal URLs in Web.Docs order over the sorted topics. It
// is the one definition of that order: BuildFromWeb indexes this table,
// and a cluster router resolves shard replies' doc IDs through it.
func DocsOf(w *webcorpus.Web) []webcorpus.Doc {
	docs := make([]webcorpus.Doc, 0, w.Size())
	for _, topic := range w.Topics() {
		docs = append(docs, w.Docs(topic)...)
	}
	return inURLOrder(docs)
}

// inURLOrder returns a copy of docs sorted by URL, equal URLs in their
// order in docs. It sorts a permutation and copies each document once,
// rather than moving the documents themselves through the sort.
func inURLOrder(docs []webcorpus.Doc) []webcorpus.Doc {
	perm := make([]int32, len(docs))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := strings.Compare(docs[a].URL, docs[b].URL); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	out := make([]webcorpus.Doc, len(docs))
	for i, p := range perm {
		out[i] = docs[p]
	}
	return out
}

// BuildFromWeb constructs an index over DocsOf(w), which becomes its
// document table.
func BuildFromWeb(w *webcorpus.Web) *Index {
	return build(DocsOf(w))
}

// FNV-1a, 64-bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint hashes a document table: every field of every document, in
// table order, with strings length-prefixed and Authority as its IEEE-754
// bits (64-bit FNV-1a over little-endian integers). Nodes that generated
// the same world from the same seed and corpus agree on it; a different
// seed, corpus or document order changes it.
func Fingerprint(docs []webcorpus.Doc) uint64 {
	h := fnvU64(fnvOffset64, uint64(len(docs)))
	for i := range docs {
		d := &docs[i]
		h = fnvString(h, d.URL)
		h = fnvString(h, d.Title)
		h = fnvString(h, d.Snippet)
		h = fnvU64(h, uint64(d.Kind))
		h = fnvString(h, d.Topic)
		h = fnvU64(h, math.Float64bits(d.Authority))
		h = fnvString(h, d.Region)
	}
	return h
}

// fnvU64 folds v's eight little-endian bytes into h.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xff)) * fnvPrime64
	}
	return h
}

// fnvString folds s's length, then its bytes, into h.
func fnvString(h uint64, s string) uint64 {
	h = fnvU64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}
