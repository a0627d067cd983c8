package serpserver

import (
	"net/http"
	"strings"
	"testing"

	"geoserp/internal/serp"
)

const desktopUA = "Mozilla/5.0 (X11; Linux x86_64; rv:38.0) Gecko/20100101 Firefox/38.0"
const mobileUA = "Mozilla/5.0 (iPhone; CPU iPhone OS 8_0 like Mac OS X) Safari/600.1.4"

// parseSurface parses a served results page and reports whether it is
// the desktop surface: the page must be one surface's rendering of what
// it parses to.
func parseSurface(t *testing.T, doc string) (page *serp.Page, desktop bool) {
	t.Helper()
	page, err := serp.ParseHTML(doc)
	if err != nil {
		t.Fatal(err)
	}
	switch doc {
	case serp.RenderDesktopHTML(page):
		return page, true
	case serp.RenderHTML(page):
		return page, false
	}
	t.Fatalf("page is neither surface's rendering of what it parses to:\n%s", doc)
	return nil, false
}

func TestDesktopSurfaceServed(t *testing.T) {
	h := testHandler(t, nil)
	w := get(t, h, "/search?q=Coffee&ll=41.4993,-81.6944",
		map[string]string{"User-Agent": desktopUA})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	page, desktop := parseSurface(t, w.Body.String())
	if !desktop {
		t.Fatal("desktop UA did not receive the desktop surface")
	}
	// The desktop surface has no Geolocation API: the ll parameter must
	// be IGNORED and the location derived from the IP instead.
	if strings.HasPrefix(page.Location, "41.4993") {
		t.Fatalf("desktop page honoured the Geolocation coordinate: %s", page.Location)
	}
}

func TestMobileSurfaceHonoursGPS(t *testing.T) {
	h := testHandler(t, nil)
	w := get(t, h, "/search?q=Coffee&ll=41.4993,-81.6944",
		map[string]string{"User-Agent": mobileUA})
	page, desktop := parseSurface(t, w.Body.String())
	if desktop {
		t.Fatal("mobile UA received the desktop surface")
	}
	if !strings.HasPrefix(page.Location, "41.4993") {
		t.Fatalf("mobile page ignored the Geolocation coordinate: %s", page.Location)
	}
}

func TestUnknownUADefaultsToMobile(t *testing.T) {
	h := testHandler(t, nil)
	w := get(t, h, "/search?q=Coffee&ll=41.4993,-81.6944",
		map[string]string{"User-Agent": "Go-http-client/1.1"})
	if _, desktop := parseSurface(t, w.Body.String()); desktop {
		t.Fatal("ambiguous UA received the desktop surface")
	}
}

func TestIsDesktopUA(t *testing.T) {
	cases := map[string]bool{
		desktopUA: true,
		mobileUA:  false,
		"Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.36 Chrome/43.0 Safari/537.36": true,
		"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_10) Safari/600.5.17":             true,
		"Mozilla/5.0 (Linux; Android 5.1; Nexus 5) Chrome/43.0 Mobile":              false,
		"Mozilla/5.0 (iPad; CPU OS 8_0 like Mac OS X) Safari/600.1.4":               false,
		"curl/7.81.0": false,
		"":            false,
	}
	for ua, want := range cases {
		if got := isDesktopUA(ua); got != want {
			t.Errorf("isDesktopUA(%q) = %v, want %v", ua, got, want)
		}
	}
}
