// Package storage persists crawl output. Observations — one fetched result
// page plus its experimental coordinates — are stored as JSON Lines, the
// append-friendly format long crawls want; analysis tables are written as
// CSV.
package storage

import (
	"bufio"
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"geoserp/internal/serp"
)

// Role distinguishes the two members of a measurement pair (§2.2): every
// treatment has a control issuing the identical query at the same moment
// from the same location, so noise can be separated from personalization.
type Role string

const (
	// Treatment is the measured browser instance.
	Treatment Role = "treatment"
	// Control is the simultaneous duplicate used to estimate noise.
	Control Role = "control"
)

// Observation is one captured result page with its experimental context.
type Observation struct {
	// Phase labels the campaign phase the observation belongs to ("" for
	// crawls predating phase labelling).
	Phase string `json:"phase,omitempty"`
	// Term is the query term.
	Term string `json:"term"`
	// Category is the query category (queries.Category.Short()).
	Category string `json:"category"`
	// Granularity is the vantage-point scale (geo.Granularity.Short()).
	Granularity string `json:"granularity"`
	// LocationID is the vantage point's slug.
	LocationID string `json:"location_id"`
	// Role is treatment or control.
	Role Role `json:"role"`
	// Day is the 0-based campaign day.
	Day int `json:"day"`
	// MachineIP is the crawl machine the query was issued from.
	MachineIP string `json:"machine_ip"`
	// Datacenter is the replica that served the page.
	Datacenter string `json:"datacenter,omitempty"`
	// TraceID is the telemetry trace ID the crawler minted for this
	// query (also kept on Page.TraceID); it joins the stored record to
	// the crawler's and server's log lines. Empty for untraced crawls.
	TraceID string `json:"trace_id,omitempty"`
	// FetchedAt is the (virtual) fetch time.
	FetchedAt time.Time `json:"fetched_at"`
	// Page is the parsed result page (nil when Failed).
	Page *serp.Page `json:"page,omitempty"`
	// Failed marks a fetch that still failed after the retry policy was
	// exhausted. The slot is recorded — the paper's crawls likewise kept
	// note of corrupted SERPs instead of aborting a multi-day phase — but
	// carries no Page; analysis skips it.
	Failed bool `json:"failed,omitempty"`
	// Err is the final fetch error for a Failed observation.
	Err string `json:"err,omitempty"`
	// Shed marks a Failed observation whose final error was the server
	// shedding load (503 under admission control) rather than a broken
	// fetch. Analysis treats both as missing data, but capacity planning
	// wants them apart: a shed page was the server's choice, not the
	// network's.
	Shed bool `json:"shed,omitempty"`
}

// Validate checks the observation is structurally complete. A Failed
// observation must carry its error and no page; a successful one must
// carry a valid page.
func (o *Observation) Validate() error {
	switch {
	case o.Term == "":
		return fmt.Errorf("storage: observation missing term")
	case o.Role != Treatment && o.Role != Control:
		return fmt.Errorf("storage: observation has bad role %q", o.Role)
	case o.LocationID == "":
		return fmt.Errorf("storage: observation missing location")
	}
	if o.Failed {
		if o.Err == "" {
			return fmt.Errorf("storage: failed observation missing error")
		}
		if o.Page != nil {
			return fmt.Errorf("storage: failed observation carries a page")
		}
		return nil
	}
	if o.Shed {
		return fmt.Errorf("storage: shed observation not marked failed")
	}
	if o.Page == nil {
		return fmt.Errorf("storage: observation missing page")
	}
	return o.Page.Validate()
}

// WriteJSONL streams observations to w, one JSON document per line.
func WriteJSONL(w io.Writer, obs []Observation) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range obs {
		if err := enc.Encode(&obs[i]); err != nil {
			return fmt.Errorf("storage: encode observation %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL stream of observations: one record per line,
// blank lines skipped.
func ReadJSONL(r io.Reader) ([]Observation, error) {
	obs, _, err := readJSONL(r, false, 0)
	return obs, err
}

// readJSONL is ReadJSONL; with tornTail it also forgives an undecodable
// last line, the one damage a crash mid-append leaves, and returns the
// records before it. kept is the byte length of the lines through the one
// holding record number keep, newline included (0 when keep is 0 or the
// stream holds fewer records).
func readJSONL(r io.Reader, tornTail bool, keep int) (out []Observation, kept int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var read int64 // bytes of the lines scanned so far
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		read += int64(adv)
		return adv, tok, err
	})
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var o Observation
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			if tornTail && !sc.Scan() && sc.Err() == nil {
				return out, kept, nil
			}
			return nil, 0, fmt.Errorf("storage: line %d: %w", line, err)
		}
		out = append(out, o)
		if len(out) == keep {
			kept = read
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("storage: scan: %w", err)
	}
	return out, kept, nil
}

// SaveJSONL writes observations to a file path. Paths ending in ".gz" are
// gzip-compressed — a full campaign is ~140k observations, an order of
// magnitude smaller on disk compressed.
func SaveJSONL(path string, obs []Observation) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", path, err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		if err := WriteJSONL(gz, obs); err != nil {
			return err
		}
		if err := gz.Close(); err != nil {
			return fmt.Errorf("storage: gzip %s: %w", path, err)
		}
	} else if err := WriteJSONL(f, obs); err != nil {
		return err
	}
	return f.Close()
}

// AppendJSONL appends observations to a plain-JSONL file, creating it if
// needed. This is the checkpoint write path: each completed term sweep is
// flushed as it finishes, so a killed campaign loses at most one sweep.
// Gzip paths are rejected — gzip streams cannot be append-extended.
func AppendJSONL(path string, obs []Observation) error {
	if strings.HasSuffix(path, ".gz") {
		return fmt.Errorf("storage: cannot append to gzip file %s", path)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: append %s: %w", path, err)
	}
	if err := WriteJSONL(f, obs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadJSONL reads observations from a file path, transparently
// decompressing ".gz" files.
func LoadJSONL(path string) ([]Observation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("storage: gunzip %s: %w", path, err)
		}
		defer gz.Close()
		return ReadJSONL(gz)
	}
	return ReadJSONL(f)
}

// Table is a simple header+rows table for CSV export of analysis results.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row; it panics on width mismatch, which is a
// programming error in the analysis code.
func (t *Table) AddRow(cells ...string) {
	if len(t.Header) > 0 && len(cells) != len(t.Header) {
		panic(fmt.Sprintf("storage: row width %d != header width %d", len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// WriteCSV writes the table to w.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.Header) > 0 {
		if err := cw.Write(t.Header); err != nil {
			return fmt.Errorf("storage: write header: %w", err)
		}
	}
	for i, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("storage: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the table to a file path.
func (t *Table) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", path, err)
	}
	defer f.Close()
	if err := t.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
