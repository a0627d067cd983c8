package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// /spanz is the cluster's span export plane: every node (router and each
// shard) serves its SpanRecorder ring as cursor-paginated JSON, and the
// coordinator's stitcher pulls all of them to assemble cross-process
// traces. Cursors are lifetime span indices, so a reader pages through a
// live ring without rereads or skips: spans recorded mid-pagination simply
// extend the tail, and spans the ring overwrote are reported as dropped.

// SpanzVersion is the export format version carried in every page, bumped
// on any incompatible change to SpanzPage or SpanRecord.
const SpanzVersion = 1

// SpanzPath is the path nodes serve the export on.
const SpanzPath = "/spanz"

const (
	// DefaultSpanzLimit is the page size when the request names none.
	DefaultSpanzLimit = 1024
	// MaxSpanzLimit caps the page size a request may ask for.
	MaxSpanzLimit = 8192
)

// SpanzPage is one page of a node's span export.
type SpanzPage struct {
	Version int    `json:"version"`
	Node    string `json:"node"`
	// Total is the node's lifetime span count; Cursor is the lifetime
	// index of the first span in this page (>= the requested cursor when
	// the ring dropped spans in between, the gap being Dropped). The next
	// page starts at NextCursor; NextCursor == Total means "caught up".
	Total      uint64       `json:"total"`
	Cursor     uint64       `json:"cursor"`
	NextCursor uint64       `json:"next_cursor"`
	Dropped    uint64       `json:"dropped,omitempty"`
	Spans      []SpanRecord `json:"spans"`
}

// SpanzHandler serves rec's ring as paginated SpanzPage JSON under the
// query parameters cursor (default 0) and limit (default
// DefaultSpanzLimit, capped at MaxSpanzLimit). node names this process in
// every page — stitched traces carry it through to per-node Chrome lanes.
// A nil recorder serves empty pages rather than erroring, so mounting the
// endpoint is unconditional.
func SpanzHandler(rec *SpanRecorder, node string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cursor := uint64(0)
		if v := r.URL.Query().Get("cursor"); v != "" {
			c, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad cursor: "+v, http.StatusBadRequest)
				return
			}
			cursor = c
		}
		limit := DefaultSpanzLimit
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				http.Error(w, "bad limit: "+v, http.StatusBadRequest)
				return
			}
			limit = n
		}
		if limit > MaxSpanzLimit {
			limit = MaxSpanzLimit
		}
		spans, start, total := rec.SnapshotRange(cursor, limit)
		page := SpanzPage{
			Version:    SpanzVersion,
			Node:       node,
			Total:      total,
			Cursor:     start,
			NextCursor: start + uint64(len(spans)),
			Spans:      spans,
		}
		if start > cursor {
			page.Dropped = start - cursor
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(page)
	})
}

// FetchSpanz pages through the /spanz export at base (e.g.
// "http://shard-0") until it has drained the node's ring, returning every
// span plus the node's self-reported name. Spans recorded while paginating
// are picked up by later pages; callers wanting a consistent cut should
// quiesce the node first. The export's version must match SpanzVersion.
func FetchSpanz(c *http.Client, base string) (NodeSpans, error) {
	var out NodeSpans
	cursor := uint64(0)
	for {
		url := fmt.Sprintf("%s%s?cursor=%d&limit=%d", base, SpanzPath, cursor, MaxSpanzLimit)
		resp, err := c.Get(url)
		if err != nil {
			return out, fmt.Errorf("fetch %s: %w", url, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return out, fmt.Errorf("read %s: %w", url, err)
		}
		if resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("fetch %s: status %d", url, resp.StatusCode)
		}
		var page SpanzPage
		if err := json.Unmarshal(body, &page); err != nil {
			return out, fmt.Errorf("decode %s: %w", url, err)
		}
		if page.Version != SpanzVersion {
			return out, fmt.Errorf("%s: export version %d, want %d", url, page.Version, SpanzVersion)
		}
		out.Node = page.Node
		out.Spans = append(out.Spans, page.Spans...)
		if page.NextCursor >= page.Total {
			return out, nil
		}
		if page.NextCursor <= cursor {
			// A page that is not the last must advance the cursor: a ring
			// starts each page at or after the cursor, and a page short of
			// the total carries at least one span. A server that does not
			// would be fetched forever; treat it as a protocol violation.
			return out, fmt.Errorf("%s: cursor stuck at %d of %d", url, page.NextCursor, page.Total)
		}
		cursor = page.NextCursor
	}
}
