package webcorpus

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"geoserp/internal/queries"
)

func testWeb(t *testing.T) *Web {
	t.Helper()
	return NewWeb(1, queries.StudyCorpus(), DefaultRegions())
}

func TestWebCoversEveryQuery(t *testing.T) {
	w := testWeb(t)
	c := queries.StudyCorpus()
	if got := len(w.Topics()); got != c.Len() {
		t.Fatalf("web has %d topics, want %d", got, c.Len())
	}
	for _, q := range c.All() {
		docs := w.Docs(q.ID())
		if len(docs) < 5 {
			t.Fatalf("topic %q has only %d docs", q.ID(), len(docs))
		}
	}
}

func TestWebDocsSortedByAuthority(t *testing.T) {
	w := testWeb(t)
	for _, topic := range []string{"coffee", "gay-marriage", "barack-obama", "starbucks"} {
		docs := w.Docs(topic)
		for i := 1; i < len(docs); i++ {
			if docs[i-1].Authority < docs[i].Authority {
				t.Fatalf("topic %s docs not sorted at %d", topic, i)
			}
		}
	}
}

func TestWebDocFields(t *testing.T) {
	w := testWeb(t)
	seen := map[string]bool{}
	for _, topic := range w.Topics() {
		for _, d := range w.Docs(topic) {
			if d.URL == "" || d.Title == "" || d.Snippet == "" {
				t.Fatalf("doc with empty field: %+v", d)
			}
			if !strings.HasPrefix(d.URL, "https://") {
				t.Fatalf("non-https URL %q", d.URL)
			}
			if d.Topic != topic {
				t.Fatalf("doc topic %q filed under %q", d.Topic, topic)
			}
			if d.Authority < 0 || d.Authority > 1 {
				t.Fatalf("authority %v for %s", d.Authority, d.URL)
			}
			if seen[d.URL] {
				t.Fatalf("duplicate URL across corpus: %s", d.URL)
			}
			seen[d.URL] = true
		}
	}
}

func TestWebBrandVsGenericStructure(t *testing.T) {
	w := testWeb(t)
	// Brands get an official site as the top result.
	top := w.Docs("starbucks")[0]
	if top.Kind != KindOfficial {
		t.Fatalf("top starbucks doc kind = %v, want official", top.Kind)
	}
	// Generic terms get regional directory pages; brands do not.
	regional := 0
	for _, d := range w.Docs("coffee") {
		if d.Region != "" {
			regional++
		}
	}
	if regional < 22 {
		t.Fatalf("coffee has %d regional docs, want >= 22 (one per region)", regional)
	}
	for _, d := range w.Docs("starbucks") {
		if d.Region != "" {
			t.Fatalf("brand topic has regional doc %s", d.URL)
		}
	}
}

func TestWebCommonNameNamesakes(t *testing.T) {
	w := testWeb(t)
	countProfiles := func(topic string) (regional int) {
		for _, d := range w.Docs(topic) {
			if d.Kind == KindProfile && d.Region != "" {
				regional++
			}
		}
		return regional
	}
	if got := countProfiles("bill-johnson"); got < 4 {
		t.Fatalf("bill-johnson has %d regional namesake profiles, want >= 4", got)
	}
	if got := countProfiles("barack-obama"); got != 0 {
		t.Fatalf("barack-obama has %d regional namesake profiles, want 0", got)
	}
}

func TestWebPoliticianScopeAuthority(t *testing.T) {
	w := testWeb(t)
	topAuth := func(topic string) float64 {
		return w.Docs(topic)[0].Authority
	}
	// National figures must have a stronger top result than county-board
	// members — the mechanism behind "politicians essentially unaffected"
	// nationally vs. slight local coverage differences for local officials.
	obama := topAuth("barack-obama")
	board := topAuth("margaret-kowalski")
	if obama <= board {
		t.Fatalf("obama top authority %v <= county board %v", obama, board)
	}
}

func TestWebDeterministic(t *testing.T) {
	a := NewWeb(7, queries.StudyCorpus(), DefaultRegions())
	b := NewWeb(7, queries.StudyCorpus(), DefaultRegions())
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for _, topic := range []string{"coffee", "tim-ryan", "health"} {
		da, db := a.Docs(topic), b.Docs(topic)
		if len(da) != len(db) {
			t.Fatalf("topic %s doc counts differ", topic)
		}
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("topic %s differs at %d:\n%+v\n%+v", topic, i, da[i], db[i])
			}
		}
	}
}

func TestRegionsFromNames(t *testing.T) {
	rs := RegionsFromNames([]string{"New York", "Ohio"})
	if rs[0].Slug != "new-york" || rs[0].Name != "New York" {
		t.Fatalf("region = %+v", rs[0])
	}
	if rs[1].Slug != "ohio" {
		t.Fatalf("region = %+v", rs[1])
	}
	if len(DefaultRegions()) != 22 {
		t.Fatalf("DefaultRegions = %d, want 22", len(DefaultRegions()))
	}
}

func TestSlugAndTitleCase(t *testing.T) {
	cases := map[string]string{
		"Chick-fil-A":     "chick-fil-a",
		"Wendy's":         "wendy-s",
		"  Post  Office ": "post-office",
	}
	for in, want := range cases {
		if got := slug(in); got != want {
			t.Fatalf("slug(%q) = %q, want %q", in, got, want)
		}
	}
	if got := TitleCase("gay-marriage"); got != "Gay Marriage" {
		t.Fatalf("TitleCase = %q", got)
	}
}

func TestDocKindString(t *testing.T) {
	kinds := []DocKind{KindOfficial, KindEncyclopedia, KindDirectory, KindGov,
		KindCampaign, KindProfile, KindAdvocacy, KindBlog}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad kind label %q", s)
		}
		seen[s] = true
	}
	if DocKind(99).String() == "" {
		t.Fatal("unknown kind empty label")
	}
}

// TestWorldFingerprint hashes the entire generated world — every static
// doc, a sample of places, and a week of news — and compares two
// independently built instances. Any nondeterminism in corpus generation
// would break campaign reproducibility, so this is the canary.
func TestWorldFingerprint(t *testing.T) {
	fingerprint := func() uint64 {
		h := fnv.New64a()
		w := NewWeb(3, queries.StudyCorpus(), DefaultRegions())
		for _, topic := range w.Topics() {
			for _, d := range w.Docs(topic) {
				fmt.Fprintf(h, "%s|%s|%.9f|%s\n", d.URL, d.Title, d.Authority, d.Region)
			}
		}
		p := NewPlaces(3)
		for _, kind := range p.Kinds() {
			for _, b := range p.Near(cleveland, kind, 12) {
				fmt.Fprintf(h, "%s|%s|%.9f|%.9f\n", b.ID, b.Name, b.Point.Lat, b.Point.Lon)
			}
		}
		n := NewNewsWire(3, DefaultRegions())
		for day := 0; day < 7; day++ {
			for _, a := range n.Topical("gay-marriage", day) {
				fmt.Fprintf(h, "%s|%.9f\n", a.URL, a.Freshness)
			}
		}
		return h.Sum64()
	}
	if fingerprint() != fingerprint() {
		t.Fatal("world generation is not deterministic")
	}
}
