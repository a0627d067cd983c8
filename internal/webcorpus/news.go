package webcorpus

import (
	"cmp"
	"slices"
	"strconv"

	"geoserp/internal/detrand"
)

// Article is a dated news story in the News vertical.
type Article struct {
	// URL uniquely identifies the article.
	URL string
	// Title is the headline.
	Title string
	// Source is the outlet slug ("worldwire", "ohio-observer").
	Source string
	// Region is the state slug of a regional outlet, or "" for a
	// national one.
	Region string
	// Topic is the query ID the article covers.
	Topic string
	// Day is the simulation day the article was published (0-based).
	Day int
	// Freshness scores how prominently the article is featured on a
	// given day; it decays as the article ages.
	Freshness float64
}

// nationalOutlets are the wire's national sources.
var nationalOutlets = []string{
	"worldwire", "capitoldaily", "theledger", "newsline",
	"nationalpost", "thecurrent", "metrotimes", "dispatchwire",
}

// NewsWire is the time-dependent news vertical. For every controversial
// topic it maintains a rolling set of national articles plus occasional
// regional coverage; the set rotates day by day, which is what makes News
// cards the (small) noise source for controversial queries in §3.1 and the
// growing personalization component in Fig. 7.
type NewsWire struct {
	seed    uint64
	regions []Region
}

// NewNewsWire creates the News vertical with the given root seed.
func NewNewsWire(seed uint64, regions []Region) *NewsWire {
	return &NewsWire{seed: seed, regions: regions}
}

// Topical returns the articles available for topic on the given simulation
// day, sorted by freshness descending (ties by URL). Day is 0-based; the
// window spans the article's publication day and the following two days.
func (n *NewsWire) Topical(topic string, day int) []Article {
	var out []Article
	title := TitleCase(topic)
	// Articles published on day d remain in the pool through day d+2
	// with decaying freshness.
	for age := 0; age <= 2; age++ {
		pub := day - age
		if pub < 0 {
			continue
		}
		out = append(out, n.publishedOn(topic, title, pub, age)...)
	}
	// URLs are unique, so the order is total.
	slices.SortFunc(out, func(a, b Article) int {
		if c := cmp.Compare(b.Freshness, a.Freshness); c != 0 {
			return c
		}
		return cmp.Compare(a.URL, b.URL)
	})
	return out
}

// publishedOn generates the articles for topic, headlined with its title
// case title, published on day pub and scored for an observer age days
// later.
func (n *NewsWire) publishedOn(topic, title string, pub, age int) []Article {
	day := strconv.Itoa(pub)
	dayKey := "day" + day
	rng := n.nationalRNG(topic, dayKey)
	// 1–3 national stories per topic per day.
	count := 1 + rng.Intn(3)
	decay := 1.0 / float64(1+age)
	nationalTitle := title + ": developments (day " + day + ")"
	out := make([]Article, 0, count+1)
	for k := 0; k < count; k++ {
		src := detrand.Pick(rng, nationalOutlets)
		out = append(out, Article{
			URL:       "https://" + src + ".example/" + topic + "/" + dayKey + "-" + strconv.Itoa(k),
			Title:     nationalTitle,
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
		covers := n.regionalRNG(topic, r.Slug, dayKey)
		if !covers.Bool(0.04) {
			continue
		}
		fresh := n.regionalFreshRNG(topic, r.Slug, dayKey)
		out = append(out, Article{
			URL:       "https://" + r.Slug + "-observer.example/news/" + topic + "/" + dayKey,
			Title:     title + ": what it means for " + r.Name,
			Source:    r.Slug + "-observer",
			Region:    r.Slug,
			Topic:     topic,
			Day:       pub,
			Freshness: fresh.Range(0.35, 0.8) * decay,
		})
	}
	return out
}

// nationalRNG opens the stream of a topic's national stories published on
// the day dayKey ("day<pub>") names: their count, outlets and freshness.
func (n *NewsWire) nationalRNG(topic, dayKey string) *detrand.RNG {
	return detrand.NewKeyed(n.seed, "news", topic, dayKey)
}

// regionalRNG opens the stream that decides whether the outlet of region
// slug covers the topic's story of that day. It and regionalFreshRNG
// return the generator by value: they are too large to inline, and a
// returned pointer would put one generator per region on the heap.
func (n *NewsWire) regionalRNG(topic, slug, dayKey string) detrand.RNG {
	return *detrand.NewKeyed(n.seed, "regionalnews", topic, slug, dayKey)
}

// regionalFreshRNG opens the stream of that regional story's freshness.
func (n *NewsWire) regionalFreshRNG(topic, slug, dayKey string) detrand.RNG {
	return *detrand.NewKeyed(n.seed, "regfresh", topic, slug, dayKey)
}
