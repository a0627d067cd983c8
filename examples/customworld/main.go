// Customworld: the paper's §5 future work — "our methodology can easily be
// extended to other countries and search engines" — made concrete. This
// example builds a UK-flavoured world (UK query corpus, England/Scotland/
// Wales regions, UK establishment taxonomy), serves it over HTTP, and runs
// the same treatment/control measurement against it.
//
//	go run ./examples/customworld
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"geoserp/internal/browser"
	"geoserp/internal/engine"
	"geoserp/internal/geo"
	"geoserp/internal/metrics"
	"geoserp/internal/queries"
	"geoserp/internal/serpserver"
	"geoserp/internal/simclock"
	"geoserp/internal/webcorpus"
)

func main() {
	corpus, err := queries.NewCorpus([]queries.Query{
		{Term: "Chemist", Category: queries.Local},
		{Term: "Chip Shop", Category: queries.Local},
		{Term: "GP Surgery", Category: queries.Local},
		{Term: "Greggs", Category: queries.Local, Brand: true},
		{Term: "Pret A Manger", Category: queries.Local, Brand: true},
		{Term: "Scottish Independence", Category: queries.Controversial},
		{Term: "NHS Funding", Category: queries.Controversial},
		{Term: "Prime Minister", Category: queries.Politician, Scope: queries.ScopeNationalFigure},
	})
	if err != nil {
		log.Fatal(err)
	}

	london := geo.Point{Lat: 51.5074, Lon: -0.1278}
	edinburgh := geo.Point{Lat: 55.9533, Lon: -3.1883}
	cardiff := geo.Point{Lat: 51.4816, Lon: -3.1791}
	regions := []engine.RegionInfo{
		{Region: webcorpus.Region{Slug: "england", Name: "England"}, Centroid: london},
		{Region: webcorpus.Region{Slug: "scotland", Name: "Scotland"}, Centroid: edinburgh},
		{Region: webcorpus.Region{Slug: "wales", Name: "Wales"}, Centroid: cardiff},
	}
	kinds := []webcorpus.PlaceKind{
		{Key: "chemist", Density: 1.2, NameSuffixes: []string{"Pharmacy", "Chemist"}},
		{Key: "chip-shop", Density: 0.9, NameSuffixes: []string{"Fish Bar", "Chippy", "Fish & Chips"}},
		{Key: "gp-surgery", Density: 0.7, NameSuffixes: []string{"Medical Practice", "Surgery", "Health Centre"}},
		{Key: "greggs", Density: 0.8, Brand: true},
		{Key: "pret-a-manger", Density: 0.3, Brand: true},
	}

	clk := simclock.NewManual(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	cfg := engine.DefaultConfig()
	cfg.RateBurst = 1 << 20
	cfg.RatePerMinute = 1 << 20
	eng := engine.New(cfg, clk,
		engine.WithCorpus(corpus),
		engine.WithRegions(regions),
		engine.WithPlaceKinds(kinds))

	srv, err := serpserver.Listen("127.0.0.1:0", serpserver.NewHandler(eng))
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	fmt.Printf("UK-world engine serving at %s\n\n", srv.URL())

	search := func(pt geo.Point, term string) []string {
		b, err := browser.New(srv.URL(), browser.WithSourceIP("10.0.0.1"))
		if err != nil {
			log.Fatal(err)
		}
		b.OverrideGeolocation(pt)
		page, err := b.Search(term)
		if err != nil {
			log.Fatal(err)
		}
		return page.Links()
	}

	fmt.Printf("%-22s %12s %12s\n", "query", "LDN vs EDI", "LDN vs LDN")
	fmt.Println("------------------------------------------------")
	for _, q := range corpus.All() {
		cross := metrics.EditDistance(search(london, q.Term), search(edinburgh, q.Term))
		same := metrics.EditDistance(search(london, q.Term), search(london, q.Term))
		fmt.Printf("%-22s %12d %12d\n", q.Term, cross, same)
	}
	fmt.Println("\nLondon vs Edinburgh local results diverge; same-city repeats differ")
	fmt.Println("only by noise — the paper's methodology, transplanted to a new world.")
}
