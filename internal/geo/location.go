package geo

import (
	"fmt"
	"sort"
)

// Granularity is the spatial scale of a vantage-point set, following the
// paper's three-level design: voting districts within Cuyahoga County
// (~1 mile apart), county centroids within Ohio (~100 miles apart), and
// state centroids across the US.
type Granularity int

const (
	// County is the finest scale: voting districts inside Cuyahoga County.
	County Granularity = iota
	// State is the middle scale: county centroids inside Ohio.
	State
	// National is the coarsest scale: state centroids across the US.
	National
)

// Granularities lists all granularities in fine-to-coarse order, matching
// the x-axis order of the paper's Figures 2 and 5.
var Granularities = []Granularity{County, State, National}

// String returns the paper's label for the granularity.
func (g Granularity) String() string {
	switch g {
	case County:
		return "County (Cuyahoga)"
	case State:
		return "State (Ohio)"
	case National:
		return "National (USA)"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// Short returns a compact machine-friendly label.
func (g Granularity) Short() string {
	switch g {
	case County:
		return "county"
	case State:
		return "state"
	case National:
		return "national"
	default:
		return fmt.Sprintf("g%d", int(g))
	}
}

// Location is a vantage point in the study: a named place with a coordinate,
// a granularity, and a synthetic demographic profile.
type Location struct {
	// ID is a stable slug unique across the whole dataset,
	// e.g. "state/colorado" or "district/cuyahoga-07".
	ID string `json:"id"`
	// Name is the human-readable place name.
	Name string `json:"name"`
	// Granularity is the vantage-point set this location belongs to.
	Granularity Granularity `json:"granularity"`
	// Point is the query coordinate presented to the search engine.
	Point Point `json:"point"`
	// Demographics holds the synthetic 25-feature profile.
	Demographics Demographics `json:"demographics"`
}

// Dataset is the full set of study locations, indexed by granularity.
type Dataset struct {
	byGranularity map[Granularity][]Location
	byID          map[string]Location
}

// NewDataset builds a Dataset from locations, validating uniqueness of IDs
// and coordinate sanity.
func NewDataset(locs []Location) (*Dataset, error) {
	d := &Dataset{
		byGranularity: make(map[Granularity][]Location),
		byID:          make(map[string]Location, len(locs)),
	}
	for _, l := range locs {
		if l.ID == "" {
			return nil, fmt.Errorf("geo: location %q has empty ID", l.Name)
		}
		if _, dup := d.byID[l.ID]; dup {
			return nil, fmt.Errorf("geo: duplicate location ID %q", l.ID)
		}
		if !l.Point.Valid() {
			return nil, fmt.Errorf("geo: location %q has invalid point %v", l.ID, l.Point)
		}
		d.byID[l.ID] = l
		d.byGranularity[l.Granularity] = append(d.byGranularity[l.Granularity], l)
	}
	for g := range d.byGranularity {
		sort.Slice(d.byGranularity[g], func(i, j int) bool {
			return d.byGranularity[g][i].ID < d.byGranularity[g][j].ID
		})
	}
	return d, nil
}

// At returns the locations at granularity g, sorted by ID. The returned
// slice must not be mutated.
func (d *Dataset) At(g Granularity) []Location {
	return d.byGranularity[g]
}

// ByID looks a location up by its slug.
func (d *Dataset) ByID(id string) (Location, bool) {
	l, ok := d.byID[id]
	return l, ok
}

// All returns every location across all granularities, sorted by ID.
func (d *Dataset) All() []Location {
	out := make([]Location, 0, len(d.byID))
	for _, g := range Granularities {
		out = append(out, d.byGranularity[g]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the total number of locations.
func (d *Dataset) Len() int { return len(d.byID) }
