package webcorpus

import (
	"fmt"
	"reflect"
	"testing"

	"geoserp/internal/detrand"
	"geoserp/internal/queries"
)

// referencePublishedOn is the fmt-built publishedOn the strconv one
// replaced, kept as its oracle. It opens the same three streams through
// the same helpers, with a day key it formats itself.
func referencePublishedOn(n *NewsWire, topic string, pub, age int) []Article {
	rng := n.nationalRNG(topic, fmt.Sprintf("day%d", pub))
	// 1–3 national stories per topic per day.
	count := 1 + rng.Intn(3)
	decay := 1.0 / float64(1+age)
	out := make([]Article, 0, count+1)
	for k := 0; k < count; k++ {
		src := detrand.Pick(rng, nationalOutlets)
		out = append(out, Article{
			URL:       fmt.Sprintf("https://%s.example/%s/day%d-%d", src, topic, pub, k),
			Title:     fmt.Sprintf("%s: developments (day %d)", TitleCase(topic), pub),
			Source:    src,
			Topic:     topic,
			Day:       pub,
			Freshness: rng.Range(0.5, 1.0) * decay,
		})
	}
	// Occasional regional coverage: a state outlet picks the story up.
	// Regional stories are mildly boosted for queries from that region by
	// the engine, which is why the News share of personalization grows
	// with distance for controversial terms (Fig. 7).
	for _, r := range n.regions {
		if covers := n.regionalRNG(topic, r.Slug, fmt.Sprintf("day%d", pub)); covers.Bool(0.04) {
			fresh := n.regionalFreshRNG(topic, r.Slug, fmt.Sprintf("day%d", pub))
			out = append(out, Article{
				URL:       fmt.Sprintf("https://%s-observer.example/news/%s/day%d", r.Slug, topic, pub),
				Title:     fmt.Sprintf("%s: what it means for %s", TitleCase(topic), r.Name),
				Source:    r.Slug + "-observer",
				Region:    r.Slug,
				Topic:     topic,
				Day:       pub,
				Freshness: fresh.Range(0.35, 0.8) * decay,
			})
		}
	}
	return out
}

// TestNewsMatchesReference compares every article the wire can publish for
// a study topic — publication days 0–30, observer ages 0–2, two seeds —
// field for field against the fmt-built generator.
func TestNewsMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		n := NewNewsWire(seed, DefaultRegions())
		articles := 0
		for _, q := range queries.StudyQueries() {
			topic := q.ID()
			for pub := 0; pub <= 30; pub++ {
				for age := 0; age <= 2; age++ {
					got, want := n.publishedOn(topic, TitleCase(topic), pub, age), referencePublishedOn(n, topic, pub, age)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d, %s, day %d, age %d:\n got %+v\nwant %+v", seed, topic, pub, age, got, want)
					}
					articles += len(got)
				}
			}
		}
		t.Logf("seed %d: %d articles match", seed, articles)
	}
}
