package queries

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCorpusJSONRoundTrip(t *testing.T) {
	orig := StudyCorpus()
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("round-trip size %d, want %d", back.Len(), orig.Len())
	}
	for _, q := range orig.All() {
		got, ok := back.ByTerm(q.Term)
		if !ok {
			t.Fatalf("lost term %q", q.Term)
		}
		if got != q {
			t.Fatalf("term %q changed: %+v vs %+v", q.Term, got, q)
		}
	}
}

func TestCorpusFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.json")
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, StudyCorpus()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 240 {
		t.Fatalf("loaded %d queries", back.Len())
	}
	if _, err := LoadCorpus(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadCorpusHandWritten(t *testing.T) {
	doc := `[
	  {"term": "Chemist", "category": "local"},
	  {"term": "Greggs", "category": "local", "brand": true},
	  {"term": "NHS Funding", "category": "controversial"},
	  {"term": "Prime Minister", "category": "politician"}
	]`
	c, err := ReadCorpus(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
	pm, _ := c.ByTerm("Prime Minister")
	if pm.Scope != ScopeNationalFigure {
		t.Fatalf("politician without scope defaulted to %v", pm.Scope)
	}
	greggs, _ := c.ByTerm("Greggs")
	if !greggs.Brand {
		t.Fatal("brand flag lost")
	}
}

func TestReadCorpusErrors(t *testing.T) {
	cases := map[string]string{
		"not json":        `{`,
		"bad category":    `[{"term":"x","category":"mystery"}]`,
		"bad scope":       `[{"term":"x","category":"politician","scope":"galactic"}]`,
		"duplicate terms": `[{"term":"x","category":"local"},{"term":"x","category":"local"}]`,
		"empty term":      `[{"term":" ","category":"local"}]`,
	}
	for name, doc := range cases {
		if _, err := ReadCorpus(strings.NewReader(doc)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}
