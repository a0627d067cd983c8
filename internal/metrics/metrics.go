// Package metrics implements the two comparison metrics of §2.3 — Jaccard
// index over the sets of result URLs, and edit distance over their ordered
// lists — plus the card-type-filtered variants used to attribute noise and
// personalization to Maps, News, or "typical" results (Figures 4 and 7).
//
// Page pairs are compared by one kernel, Comparer: it extracts and interns
// a page's link lists once, then compares two prepared pages by merging
// their sorted ID sets (Jaccard) and running EditDistance, the one
// Levenshtein, over their ID lists in a scratch row it owns. ComparePages
// and BreakdownPages wrap a fresh Comparer; the streaming scorecard keeps
// one and resets it every sweep. Jaccard and EditDistance over URL lists
// stay the list API and the reference the kernel is tested against.
package metrics

import (
	"slices"

	"geoserp/internal/serp"
)

// Jaccard returns |A ∩ B| / |A ∪ B| for the two URL lists viewed as sets.
// Two empty lists are identical by convention (1.0). A Jaccard index of 1
// means both pages contain the same results (though not necessarily in the
// same order); 0 means no overlap.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	setA := make(map[string]bool, len(a))
	for _, x := range a {
		setA[x] = true
	}
	setB := make(map[string]bool, len(b))
	for _, x := range b {
		setB[x] = true
	}
	inter := 0
	for x := range setA {
		if setB[x] {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// EditDistance returns the Levenshtein distance between the two lists:
// the number of insertions, deletions, and substitutions needed to turn a
// into b. Over URL lists it measures reordering as well as composition
// changes; Comparer runs the same dynamic program over interned URL IDs.
func EditDistance[T comparable](a, b []T) int {
	d, _ := levenshtein(a, b, nil)
	return d
}

// levenshtein is EditDistance's single-row dynamic program. It works in
// row, growing it if it is shorter than len(b)+1, and returns it for reuse.
func levenshtein[T comparable](a, b []T, row []int) (int, []int) {
	// A common prefix or suffix never changes the distance.
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	if len(a) == 0 {
		return len(b), row
	}
	if len(b) == 0 {
		return len(a), row
	}
	if cap(row) <= len(b) {
		row = make([]int, len(b)+1)
	}
	row = row[:len(b)+1]
	for j := range row {
		row[j] = j
	}
	for i, x := range a {
		// diag is the previous row's row[j-1]: the substitution/match cell.
		diag := row[0]
		row[0] = i + 1
		for j, y := range b {
			d := diag
			if x != y {
				d++
			}
			diag = row[j+1]
			if diag+1 < d { // deletion
				d = diag + 1
			}
			if row[j]+1 < d { // insertion
				d = row[j] + 1
			}
			row[j+1] = d
		}
	}
	return row[len(b)], row
}

// Comparison bundles both metrics for one pair of pages.
type Comparison struct {
	Jaccard      float64
	EditDistance int
}

// Comparer is the package's one page-comparison kernel. Prepare extracts a
// page's link lists once and interns each URL as a small integer ID;
// Compare and CompareWithBreakdown then compare two prepared pages in a
// scratch row the Comparer keeps, so once it has grown they allocate
// nothing. IDs mean something only between pages one Comparer prepared
// since its last Reset. The zero value is ready to use; a Comparer is not
// safe for concurrent use.
type Comparer struct {
	ids map[string]int32
	row []int
}

// PageLinks is one page's link lists with every URL replaced by its ID.
type PageLinks struct {
	// All is Page.Links, in rank order; Set is its distinct IDs, sorted.
	All, Set []int32
	// Maps, News and Organic are Page.LinksOfType of each card type.
	Maps, News, Organic []int32
}

// Reset empties the intern table and invalidates every PageLinks prepared
// before it. The table keeps its storage, so its size is bounded by the
// most distinct URLs prepared between two resets.
func (c *Comparer) Reset() { clear(c.ids) }

// Interned returns how many distinct URLs the intern table holds.
func (c *Comparer) Interned() int { return len(c.ids) }

// Prepare applies the paper's extraction rule to p — Page.Links, and
// Page.LinksOfType for each card type — and interns every URL. The five
// lists share one allocation.
func (c *Comparer) Prepare(p *serp.Page) *PageLinks {
	if c.ids == nil {
		c.ids = map[string]int32{}
	}
	all := p.Links()
	maps, news, organic := p.LinksOfType(serp.Maps), p.LinksOfType(serp.News), p.LinksOfType(serp.Organic)
	buf := make([]int32, 0, 2*len(all)+len(maps)+len(news)+len(organic))
	pl := &PageLinks{}
	buf, pl.All = c.appendIDs(buf, all)
	buf, pl.Maps = c.appendIDs(buf, maps)
	buf, pl.News = c.appendIDs(buf, news)
	buf, pl.Organic = c.appendIDs(buf, organic)
	// The set takes the buffer's last len(all) slots, so Compact's cleared
	// tail stays inside it.
	set := append(buf[len(buf):], pl.All...)
	slices.Sort(set)
	set = slices.Compact(set)
	pl.Set = set[:len(set):len(set)]
	return pl
}

// appendIDs appends the IDs of urls to buf, interning new URLs, and
// returns buf and the appended IDs, capped so appending to them cannot
// overwrite the next list.
func (c *Comparer) appendIDs(buf []int32, urls []string) ([]int32, []int32) {
	start := len(buf)
	for _, u := range urls {
		id, ok := c.ids[u]
		if !ok {
			id = int32(len(c.ids))
			c.ids[u] = id
		}
		buf = append(buf, id)
	}
	return buf, buf[start:len(buf):len(buf)]
}

// Compare returns both metrics over the two pages' full link lists.
func (c *Comparer) Compare(a, b *PageLinks) Comparison {
	return Comparison{
		Jaccard:      jaccardSets(a.Set, b.Set),
		EditDistance: c.editDistance(a.All, b.All),
	}
}

// CompareWithBreakdown returns Compare's result and the per-type
// edit-distance decomposition, whose All is that same edit distance.
func (c *Comparer) CompareWithBreakdown(a, b *PageLinks) (Comparison, TypeBreakdown) {
	cmp := c.Compare(a, b)
	return cmp, TypeBreakdown{
		All:   cmp.EditDistance,
		Maps:  c.editDistance(a.Maps, b.Maps),
		News:  c.editDistance(a.News, b.News),
		Other: c.editDistance(a.Organic, b.Organic),
	}
}

func (c *Comparer) editDistance(a, b []int32) int {
	d, row := levenshtein(a, b, c.row)
	c.row = row
	return d
}

// jaccardSets is Jaccard over two sorted lists of distinct IDs: it merges
// them to count the intersection.
func jaccardSets(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// ComparePages applies the paper's extraction rule to both pages and
// compares the resulting link lists.
func ComparePages(a, b *serp.Page) Comparison {
	var c Comparer
	return c.Compare(c.Prepare(a), c.Prepare(b))
}

// TypeBreakdown decomposes the edit distance between two pages into the
// shares attributable to Maps, News, and all other results. Other is
// computed from the links of organic cards; the three components do not
// sum exactly to the unfiltered edit distance (alignment interactions),
// which is why the paper reports shares ("Maps results are responsible for
// around 25% of noise") rather than exact decompositions.
type TypeBreakdown struct {
	All   int
	Maps  int
	News  int
	Other int
}

// BreakdownPages computes the per-type edit-distance decomposition.
func BreakdownPages(a, b *serp.Page) TypeBreakdown {
	var c Comparer
	_, bd := c.CompareWithBreakdown(c.Prepare(a), c.Prepare(b))
	return bd
}

// MapsShare returns the fraction of all link changes attributable to Maps
// results (0 when there are no changes).
func (t TypeBreakdown) MapsShare() float64 {
	total := t.Maps + t.News + t.Other
	if total == 0 {
		return 0
	}
	return float64(t.Maps) / float64(total)
}

// NewsShare returns the fraction of all link changes attributable to News
// results.
func (t TypeBreakdown) NewsShare() float64 {
	total := t.Maps + t.News + t.Other
	if total == 0 {
		return 0
	}
	return float64(t.News) / float64(total)
}

// Identical reports whether two pages contain exactly the same links in the
// same order (the criterion of the §2.2 validation experiment).
func Identical(a, b *serp.Page) bool {
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			return false
		}
	}
	return true
}
