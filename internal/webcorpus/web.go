package webcorpus

import (
	"fmt"
	"sort"
	"strings"

	"geoserp/internal/detrand"
	"geoserp/internal/queries"
)

// Region names a state-scale region the corpus generates regional content
// for (regional directories, local news outlets, namesake profiles).
type Region struct {
	// Slug is the stable identifier, e.g. "ohio".
	Slug string
	// Name is the display name, e.g. "Ohio".
	Name string
}

// Web is the static-document vertical: everything that is not a business
// listing or a dated news article. Documents are generated once, up front,
// deterministically from the root seed and the query corpus.
type Web struct {
	seed    uint64
	regions []Region
	byTopic map[string][]Doc
	size    int
}

// NewWeb generates the static web for the given query corpus and regions.
func NewWeb(seed uint64, corpus *queries.Corpus, regions []Region) *Web {
	w := &Web{
		seed:    seed,
		regions: regions,
		byTopic: make(map[string][]Doc),
	}
	for _, q := range corpus.All() {
		var docs []Doc
		switch {
		case q.Category == queries.Local && q.Brand:
			docs = w.brandDocs(q)
		case q.Category == queries.Local:
			docs = w.genericLocalDocs(q)
		case q.Category == queries.Controversial:
			docs = w.controversialDocs(q)
		default:
			docs = w.politicianDocs(q)
		}
		sort.Slice(docs, func(i, j int) bool {
			if docs[i].Authority != docs[j].Authority {
				return docs[i].Authority > docs[j].Authority
			}
			return docs[i].URL < docs[j].URL
		})
		w.byTopic[q.ID()] = docs
		w.size += len(docs)
	}
	return w
}

// Docs returns the static documents about the given topic (a query ID),
// sorted by authority descending. The slice must not be mutated.
func (w *Web) Docs(topic string) []Doc { return w.byTopic[topic] }

// Topics returns all topics with documents, sorted.
func (w *Web) Topics() []string {
	out := make([]string, 0, len(w.byTopic))
	for t := range w.byTopic {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Size returns the total number of documents.
func (w *Web) Size() int { return w.size }

// add constructs a Doc with templated snippet text that mentions the topic
// term (so the inverted index retrieves it for the query's tokens).
func (w *Web) add(docs []Doc, q queries.Query, kind DocKind, url, title, snippetTmpl string, authority float64, region string) []Doc {
	return append(docs, Doc{
		URL:       url,
		Title:     title,
		Snippet:   fmt.Sprintf(snippetTmpl, q.Term),
		Kind:      kind,
		Topic:     q.ID(),
		Authority: authority,
		Region:    region,
	})
}

// jitter derives a small deterministic authority perturbation for an entity
// so same-kind documents for different topics do not tie exactly.
func (w *Web) jitter(parts ...string) float64 {
	rng := detrand.NewKeyed(w.seed, parts...)
	return rng.Range(-0.03, 0.03)
}

func (w *Web) brandDocs(q queries.Query) []Doc {
	id := q.ID()
	var docs []Doc
	docs = w.add(docs, q, KindOfficial,
		fmt.Sprintf("https://www.%s.example/", id),
		q.Term, "%s — official site. Find menus, offers, and locations.",
		0.95+w.jitter(id, "official"), "")
	docs = w.add(docs, q, KindOfficial,
		fmt.Sprintf("https://www.%s.example/menu", id),
		q.Term+" Menu", "Full menu and nutrition information for %s.",
		0.72+w.jitter(id, "menu"), "")
	docs = w.add(docs, q, KindEncyclopedia,
		fmt.Sprintf("https://encyclopedia.example/wiki/%s", id),
		q.Term+" - Encyclopedia", "%s is an American restaurant chain.",
		0.85+w.jitter(id, "wiki"), "")
	docs = w.add(docs, q, KindDirectory,
		fmt.Sprintf("https://reviewhub.example/chains/%s", id),
		q.Term+" Reviews", "Customer reviews and ratings for %s.",
		0.58+w.jitter(id, "reviews"), "")
	docs = w.add(docs, q, KindOfficial,
		fmt.Sprintf("https://careers.%s.example/", id),
		q.Term+" Careers", "Jobs and careers at %s.",
		0.48+w.jitter(id, "careers"), "")
	docs = w.add(docs, q, KindBlog,
		fmt.Sprintf("https://foodblog.example/%s-secret-menu", id),
		"The "+q.Term+" Items Everyone Orders", "What to order at %s, according to fans.",
		0.40+w.jitter(id, "blog"), "")
	// A handful of long-tail commentary pages deepen the candidate pool.
	docs = w.appendLongTail(docs, q, 4, 0.20, 0.38)
	return docs
}

func (w *Web) genericLocalDocs(q queries.Query) []Doc {
	id := q.ID()
	var docs []Doc
	docs = w.add(docs, q, KindEncyclopedia,
		fmt.Sprintf("https://encyclopedia.example/wiki/%s", id),
		q.Term+" - Encyclopedia", "%s: definition, history, and practice.",
		0.85+w.jitter(id, "wiki"), "")
	docs = w.add(docs, q, KindDirectory,
		fmt.Sprintf("https://yellowpages.example/c/%s", id),
		"Find a "+q.Term+" Near You", "National directory of %s listings.",
		0.70+w.jitter(id, "yp"), "")
	docs = w.add(docs, q, KindDirectory,
		fmt.Sprintf("https://reviewhub.example/c/%s", id),
		"Best "+q.Term+" Options — Reviewed", "Top-rated %s options, ranked by reviewers.",
		0.62+w.jitter(id, "rh"), "")
	docs = w.add(docs, q, KindEncyclopedia,
		fmt.Sprintf("https://howitworks.example/%s", id),
		"How a "+q.Term+" Works", "An explainer on how a %s operates.",
		0.50+w.jitter(id, "how"), "")
	// Regional directory pages: one per region, mildly authoritative, tied
	// to that region. These are the "typical" organic results that change
	// with location — the surprising bulk of personalization in Fig. 7.
	for _, r := range w.regions {
		docs = w.add(docs, q, KindDirectory,
			fmt.Sprintf("https://%s.localguide.example/%s", r.Slug, id),
			fmt.Sprintf("%s in %s — Local Guide", q.Term, r.Name),
			"Guide to every %s in the area, with hours and directions.",
			0.52+w.jitter(id, "guide", r.Slug), r.Slug)
		docs = w.add(docs, q, KindBlog,
			fmt.Sprintf("https://%s-living.example/best-%s", r.Slug, id),
			fmt.Sprintf("Best %s Picks in %s", q.Term, r.Name),
			"Our local picks for %s this year.",
			0.44+w.jitter(id, "living", r.Slug), r.Slug)
	}
	docs = w.appendLongTail(docs, q, 6, 0.18, 0.40)
	return docs
}

func (w *Web) controversialDocs(q queries.Query) []Doc {
	id := q.ID()
	var docs []Doc
	docs = w.add(docs, q, KindEncyclopedia,
		fmt.Sprintf("https://encyclopedia.example/wiki/%s", id),
		q.Term+" - Encyclopedia", "%s: overview, arguments, and history of the debate.",
		0.90+w.jitter(id, "wiki"), "")
	docs = w.add(docs, q, KindAdvocacy,
		fmt.Sprintf("https://procon.example/%s", id),
		q.Term+" — Pros and Cons", "Balanced arguments for and against %s.",
		0.78+w.jitter(id, "procon"), "")
	rng := detrand.NewKeyed(w.seed, "controversial", id)
	if rng.Bool(0.4) {
		docs = w.add(docs, q, KindGov,
			fmt.Sprintf("https://policy.usa.gov.example/%s", id),
			q.Term+" — Federal Policy", "Official federal policy resources on %s.",
			0.74+w.jitter(id, "gov"), "")
	}
	nAdvocacy := 3 + rng.Intn(3)
	stances := []string{"for", "against", "facts", "action", "truth", "coalition"}
	for i := 0; i < nAdvocacy; i++ {
		stance := stances[i%len(stances)]
		docs = w.add(docs, q, KindAdvocacy,
			fmt.Sprintf("https://%s-%s.example/", id, stance),
			fmt.Sprintf("%s: the case %s", q.Term, stance),
			"Advocacy resources about %s.",
			rng.Range(0.42, 0.68), "")
	}
	// A couple of regions host notable opinion pages on some topics.
	for _, r := range w.regions {
		if detrand.NewKeyed(w.seed, "oped", id, r.Slug).Bool(0.18) {
			docs = w.add(docs, q, KindBlog,
				fmt.Sprintf("https://%s-observer.example/opinion/%s", r.Slug, id),
				fmt.Sprintf("%s: a view from %s", q.Term, r.Name),
				"Regional perspective on %s.",
				0.38+w.jitter(id, "oped", r.Slug), r.Slug)
		}
	}
	docs = w.appendLongTail(docs, q, 5, 0.18, 0.40)
	return docs
}

// scopeDomains maps politician scope to the domain of the official page and
// the authority tier of the entity's web presence: county officials have a
// thinner, more local web footprint than members of Congress.
func scopeProfile(scope queries.PoliticianScope) (domain string, officialAuth, wikiAuth float64) {
	switch scope {
	case queries.ScopeCountyBoard:
		return "council.cuyahogacounty.example", 0.62, 0.40
	case queries.ScopeStateLegislature:
		return "legislature.ohio.example", 0.72, 0.55
	case queries.ScopeUSCongressOhio, queries.ScopeUSCongressOther:
		return "congress.example", 0.90, 0.86
	default: // national figures
		return "whitehouse.example", 0.97, 0.95
	}
}

func (w *Web) politicianDocs(q queries.Query) []Doc {
	id := q.ID()
	domain, officialAuth, wikiAuth := scopeProfile(q.Scope)
	homeRegion := "ohio"
	if q.Scope == queries.ScopeUSCongressOther || q.Scope == queries.ScopeNationalFigure {
		homeRegion = "" // nationally covered
	}
	var docs []Doc
	docs = w.add(docs, q, KindGov,
		fmt.Sprintf("https://%s/members/%s", domain, id),
		q.Term+" — Official Page", "Official page of %s: biography, contact, votes.",
		officialAuth+w.jitter(id, "official"), "")
	docs = w.add(docs, q, KindEncyclopedia,
		fmt.Sprintf("https://encyclopedia.example/wiki/%s", id),
		q.Term+" - Encyclopedia", "%s is an American politician.",
		wikiAuth+w.jitter(id, "wiki"), "")
	docs = w.add(docs, q, KindDirectory,
		fmt.Sprintf("https://ballotfacts.example/%s", id),
		q.Term+" — Ballot Facts", "Election history and positions of %s.",
		0.68+w.jitter(id, "ballot"), "")
	docs = w.add(docs, q, KindDirectory,
		fmt.Sprintf("https://votetracker.example/%s", id),
		q.Term+" — Voting Record", "Complete voting record for %s.",
		0.58+w.jitter(id, "votes"), "")
	docs = w.add(docs, q, KindCampaign,
		fmt.Sprintf("https://%s-for-office.example/", id),
		q.Term+" for Office", "Campaign site of %s.",
		0.52+w.jitter(id, "campaign"), "")
	docs = w.add(docs, q, KindProfile,
		fmt.Sprintf("https://chirper.example/%s", id),
		q.Term+" (@"+id+")", "Latest posts from %s.",
		0.50+w.jitter(id, "social"), "")
	if homeRegion != "" {
		docs = w.add(docs, q, KindBlog,
			fmt.Sprintf("https://%s-observer.example/politics/%s", homeRegion, id),
			q.Term+" — Local Coverage", "Hometown reporting on %s.",
			0.49+w.jitter(id, "localnews"), homeRegion)
	}
	// Namesakes: common names share the web with unrelated people whose
	// pages are regionally anchored, so which namesake wins depends on
	// where the query comes from. The paper attributes the elevated
	// personalization of "Bill Johnson"/"Tim Ryan" to exactly this.
	if q.CommonName {
		professions := []string{"Realtor", "Attorney", "DDS", "Photography", "Auto Group", "Fitness"}
		rng := detrand.NewKeyed(w.seed, "namesakes", id)
		picked := detrand.Sample(rng, w.regions, min(6, len(w.regions)))
		for i, r := range picked {
			prof := professions[i%len(professions)]
			docs = w.add(docs, q, KindProfile,
				fmt.Sprintf("https://%s-%s.%s.example/", id, slug(prof), r.Slug),
				fmt.Sprintf("%s %s — %s", q.Term, prof, r.Name),
				"Website of %s (no relation).",
				rng.Range(0.45, 0.72), r.Slug)
		}
	}
	docs = w.appendLongTail(docs, q, 4, 0.18, 0.40)
	return docs
}

// appendLongTail adds n low-authority commentary pages about q, giving the
// ranker a deeper pool below the fold.
func (w *Web) appendLongTail(docs []Doc, q queries.Query, n int, authLo, authHi float64) []Doc {
	id := q.ID()
	rng := detrand.NewKeyed(w.seed, "longtail", id)
	sites := []string{"forumland", "diggest", "answerbox", "mediumrare", "pressroom", "threadline"}
	for i := 0; i < n; i++ {
		site := sites[(i+rng.Intn(len(sites)))%len(sites)]
		docs = w.add(docs, q, KindBlog,
			fmt.Sprintf("https://%s.example/t/%s-%d", site, id, i+1),
			fmt.Sprintf("Discussion: %s (%d)", q.Term, i+1),
			"Community discussion about %s.",
			rng.Range(authLo, authHi), "")
	}
	return docs
}

// RegionsFromNames builds Region values from display names.
func RegionsFromNames(names []string) []Region {
	out := make([]Region, len(names))
	for i, n := range names {
		out[i] = Region{Slug: slug(n), Name: n}
	}
	return out
}

// DefaultRegions returns the 22 state regions of the study.
func DefaultRegions() []Region {
	return RegionsFromNames([]string{
		"Alabama", "Arizona", "California", "Colorado", "Florida", "Georgia",
		"Illinois", "Kansas", "Kentucky", "Massachusetts", "Michigan",
		"Minnesota", "Missouri", "New York", "North Carolina", "Ohio",
		"Oregon", "Pennsylvania", "Texas", "Virginia", "Washington",
		"Wisconsin",
	})
}

// TitleCase is a tiny helper exported for examples that synthesize display
// names from slugs.
func TitleCase(s string) string {
	words := strings.Split(strings.ReplaceAll(s, "-", " "), " ")
	for i, w := range words {
		if w == "" {
			continue
		}
		words[i] = strings.ToUpper(w[:1]) + w[1:]
	}
	return strings.Join(words, " ")
}
