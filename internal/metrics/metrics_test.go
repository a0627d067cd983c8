package metrics

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"geoserp/internal/serp"
)

func TestJaccardBasics(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 1},
		{[]string{"x"}, nil, 0},
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b"}, []string{"b", "a"}, 1}, // order-insensitive
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3.0},
		{[]string{"a"}, []string{"b"}, 0},
		{[]string{"a", "a", "b"}, []string{"a", "b"}, 1}, // duplicates collapse
	}
	for i, c := range cases {
		if got := Jaccard(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("case %d: Jaccard = %v, want %v", i, got, c.want)
		}
	}
}

func TestJaccardProperties(t *testing.T) {
	f := func(a, b []string) bool {
		j := Jaccard(a, b)
		if j < 0 || j > 1 {
			return false
		}
		// Symmetry and self-identity.
		return j == Jaccard(b, a) && Jaccard(a, a) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEditDistanceBasics(t *testing.T) {
	cases := []struct {
		a, b []string
		want int
	}{
		{nil, nil, 0},
		{[]string{"a"}, nil, 1},
		{nil, []string{"a", "b"}, 2},
		{[]string{"a", "b", "c"}, []string{"a", "b", "c"}, 0},
		{[]string{"a", "b", "c"}, []string{"a", "x", "c"}, 1},
		{[]string{"a", "b"}, []string{"b", "a"}, 2},           // swap = 2 ops (no transposition)
		{[]string{"a", "b", "c"}, []string{"b", "c", "d"}, 2}, // shift + append
		{[]string{"a", "b", "c", "d"}, []string{"d", "c", "b", "a"}, 4},
	}
	for i, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Fatalf("case %d: EditDistance = %d, want %d", i, got, c.want)
		}
	}
}

func TestEditDistanceProperties(t *testing.T) {
	f := func(a, b []string) bool {
		// Bound lengths to keep the DP fast under quick.
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		d := EditDistance(a, b)
		if d != EditDistance(b, a) {
			return false
		}
		if EditDistance(a, a) != 0 {
			return false
		}
		// d is bounded by max(len) and at least |len(a)-len(b)|.
		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		hi := len(a)
		if len(b) > hi {
			hi = len(b)
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEditDistanceTriangle(t *testing.T) {
	f := func(a, b, c []string) bool {
		trim := func(x []string) []string {
			if len(x) > 15 {
				return x[:15]
			}
			return x
		}
		a, b, c = trim(a), trim(b), trim(c)
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func page(cards ...serp.Card) *serp.Page {
	return &serp.Page{Query: "q", Cards: cards}
}

func organic(url string) serp.Card {
	return serp.Card{Type: serp.Organic, Results: []serp.Result{{URL: url, Title: url}}}
}

func meta(t serp.CardType, urls ...string) serp.Card {
	c := serp.Card{Type: t}
	for _, u := range urls {
		c.Results = append(c.Results, serp.Result{URL: u, Title: u})
	}
	return c
}

func TestComparePages(t *testing.T) {
	a := page(organic("1"), meta(serp.Maps, "m1", "m2"), organic("2"))
	b := page(organic("1"), meta(serp.Maps, "m1", "m3"), organic("2"))
	cmp := ComparePages(a, b)
	if cmp.EditDistance != 1 {
		t.Fatalf("edit = %d, want 1", cmp.EditDistance)
	}
	// links: {1,m1,m2,2} vs {1,m1,m3,2}: inter 3, union 5.
	if math.Abs(cmp.Jaccard-0.6) > 1e-12 {
		t.Fatalf("jaccard = %v, want 0.6", cmp.Jaccard)
	}
}

func TestCompareByTypeAndBreakdown(t *testing.T) {
	a := page(organic("1"), meta(serp.Maps, "m1", "m2"), meta(serp.News, "n1"), organic("2"))
	b := page(organic("1"), meta(serp.Maps, "m3", "m4"), meta(serp.News, "n1"), organic("3"))
	// The paper's per-type comparison: the list metrics over one card
	// type's links.
	for _, tc := range []struct {
		t       serp.CardType
		edit    int
		jaccard float64
	}{{serp.Maps, 2, 0}, {serp.News, 0, 1}} {
		la, lb := a.LinksOfType(tc.t), b.LinksOfType(tc.t)
		if e, j := EditDistance(la, lb), Jaccard(la, lb); e != tc.edit || j != tc.jaccard {
			t.Fatalf("%v: edit %d, jaccard %v; want %d, %v", tc.t, e, j, tc.edit, tc.jaccard)
		}
	}
	bd := BreakdownPages(a, b)
	if bd.Maps != 2 || bd.News != 0 || bd.Other != 1 {
		t.Fatalf("breakdown = %+v", bd)
	}
	if bd.All == 0 {
		t.Fatal("All should be nonzero")
	}
	if math.Abs(bd.MapsShare()-2.0/3.0) > 1e-12 {
		t.Fatalf("MapsShare = %v", bd.MapsShare())
	}
	if bd.NewsShare() != 0 {
		t.Fatalf("NewsShare = %v", bd.NewsShare())
	}
}

func TestBreakdownNoChanges(t *testing.T) {
	a := page(organic("1"))
	bd := BreakdownPages(a, a)
	if bd.All != 0 || bd.MapsShare() != 0 || bd.NewsShare() != 0 {
		t.Fatalf("self breakdown = %+v", bd)
	}
}

func TestIdentical(t *testing.T) {
	a := page(organic("1"), organic("2"))
	b := page(organic("1"), organic("2"))
	c := page(organic("2"), organic("1"))
	d := page(organic("1"))
	if !Identical(a, b) {
		t.Fatal("equal pages not identical")
	}
	if Identical(a, c) {
		t.Fatal("reordered pages identical")
	}
	if Identical(a, d) {
		t.Fatal("different-length pages identical")
	}
}

func TestEditDistanceLargeListsPerf(t *testing.T) {
	// 22 links per page is the paper's max; make sure a much larger
	// comparison is still instant (guards against accidental exponential
	// implementations).
	var a, b []string
	for i := 0; i < 500; i++ {
		a = append(a, fmt.Sprint("u", i))
		b = append(b, fmt.Sprint("u", i+250))
	}
	if d := EditDistance(a, b); d != 500 {
		t.Fatalf("distance = %d, want 500", d)
	}
}

// fuzzPage builds a page from fuzz bytes over a small URL alphabet, so
// link lists overlap, repeat and can be empty. Each byte's low two bits
// pick an Organic, Maps or News card, or (3) one more result on the last
// card; its next three bits pick the URL.
func fuzzPage(data []byte) *serp.Page {
	p := page()
	for _, x := range data {
		r := serp.Result{URL: fmt.Sprintf("https://u%d.example/", x>>2&7)}
		if t := serp.CardType(x & 3); t <= serp.News {
			p.Cards = append(p.Cards, serp.Card{Type: t, Results: []serp.Result{r}})
		} else if n := len(p.Cards); n > 0 {
			p.Cards[n-1].Results = append(p.Cards[n-1].Results, r)
		}
	}
	return p
}

// levenshteinTable is the textbook full-table Levenshtein, an oracle
// independent of EditDistance's single row and prefix/suffix trimming.
func levenshteinTable(a, b []string) int {
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			sub := d[i-1][j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			d[i][j] = min(sub, d[i-1][j]+1, d[i][j-1]+1)
		}
	}
	return d[len(a)][len(b)]
}

// FuzzComparePages checks the comparison kernel against the list metrics
// applied to the extracted URL lists: a fresh Comparer, and one reused
// across inputs without a Reset, must both give the reference Comparison
// and TypeBreakdown.
func FuzzComparePages(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 4, 8}, []byte{0, 4, 8})
	f.Add([]byte{0, 4, 8}, []byte{8, 4, 0})
	f.Add([]byte{1, 7, 11, 0, 2, 6}, []byte{1, 11, 7, 0, 2, 14})
	f.Add([]byte{5, 9, 13, 16}, []byte{})
	var reused Comparer
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, b := fuzzPage(da), fuzzPage(db)
		la, lb := a.Links(), b.Links()
		want := Comparison{Jaccard: Jaccard(la, lb), EditDistance: EditDistance(la, lb)}
		if d := levenshteinTable(la, lb); want.EditDistance != d {
			t.Fatalf("EditDistance = %d, full table = %d (%v vs %v)", want.EditDistance, d, la, lb)
		}
		wantBD := TypeBreakdown{
			All:   want.EditDistance,
			Maps:  EditDistance(a.LinksOfType(serp.Maps), b.LinksOfType(serp.Maps)),
			News:  EditDistance(a.LinksOfType(serp.News), b.LinksOfType(serp.News)),
			Other: EditDistance(a.LinksOfType(serp.Organic), b.LinksOfType(serp.Organic)),
		}
		if got := ComparePages(a, b); got != want {
			t.Fatalf("ComparePages = %+v, want %+v", got, want)
		}
		if got := BreakdownPages(a, b); got != wantBD {
			t.Fatalf("BreakdownPages = %+v, want %+v", got, wantBD)
		}
		pa, pb := reused.Prepare(a), reused.Prepare(b)
		if got := reused.Compare(pa, pb); got != want {
			t.Fatalf("reused Compare = %+v, want %+v", got, want)
		}
		if got, gotBD := reused.CompareWithBreakdown(pa, pb); got != want || gotBD != wantBD {
			t.Fatalf("reused CompareWithBreakdown = %+v, %+v, want %+v, %+v", got, gotBD, want, wantBD)
		}
	})
}
