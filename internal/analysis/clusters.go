package analysis

import "sort"

// The paper observes (§3.2, Figure 8a) that at county granularity "some
// locations cluster at the county-level, indicating that some locations
// receive similar search results to the baseline", and then tries — and
// fails — to explain the clusters with demographics. This file implements
// that clustering analysis: a similarity matrix over locations and a
// simple average-linkage agglomerative clustering over it.

// SimilarityMatrix is the mean pairwise edit distance between locations'
// result pages at one granularity (lower = more similar).
type SimilarityMatrix struct {
	Granularity string
	Locations   []string
	// Dist[i][j] is the mean edit distance between Locations[i] and
	// Locations[j]; the diagonal is zero.
	Dist [][]float64
}

// LocationSimilarity computes the similarity matrix for one granularity
// and category over all terms and days, from the stream's pair sums.
func (d *Dataset) LocationSimilarity(granularity, category string) SimilarityMatrix {
	locs := d.locationsByGranularity[granularity]
	m := SimilarityMatrix{
		Granularity: granularity,
		Locations:   append([]string{}, locs...),
		Dist:        make([][]float64, len(locs)),
	}
	sums := d.stream.pairSums(granularity, category)
	for i, a := range locs {
		m.Dist[i] = make([]float64, len(locs))
		for j, b := range locs {
			m.Dist[i][j] = sums[locPair{min(a, b), max(a, b)}].mean()
		}
	}
	return m
}

// Cluster is one group of locations whose result pages are mutually
// similar.
type Cluster struct {
	Locations []string
	// MeanIntraDist is the average pairwise distance within the cluster.
	MeanIntraDist float64
}

// Clusters runs average-linkage agglomerative clustering on the matrix,
// merging until no pair of clusters is closer than threshold. A threshold
// around the noise floor groups locations whose differences are
// indistinguishable from noise — the paper's "clustering" observation.
func (m SimilarityMatrix) Clusters(threshold float64) []Cluster {
	n := len(m.Locations)
	if n == 0 {
		return nil
	}
	// members[c] lists location indices of cluster c; nil = merged away.
	members := make([][]int, n)
	for i := range members {
		members[i] = []int{i}
	}
	// linkage returns the average inter-cluster distance.
	linkage := func(a, b []int) float64 {
		var sum float64
		var cnt int
		for _, i := range a {
			for _, j := range b {
				sum += m.Dist[i][j]
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	for {
		bestA, bestB := -1, -1
		bestD := threshold
		for a := 0; a < n; a++ {
			if members[a] == nil {
				continue
			}
			for b := a + 1; b < n; b++ {
				if members[b] == nil {
					continue
				}
				if d := linkage(members[a], members[b]); d <= bestD {
					bestA, bestB, bestD = a, b, d
				}
			}
		}
		if bestA < 0 {
			break
		}
		members[bestA] = append(members[bestA], members[bestB]...)
		members[bestB] = nil
	}

	var out []Cluster
	for _, ms := range members {
		if ms == nil {
			continue
		}
		sort.Ints(ms)
		c := Cluster{}
		for _, i := range ms {
			c.Locations = append(c.Locations, m.Locations[i])
		}
		var sum float64
		var cnt int
		for x := 0; x < len(ms); x++ {
			for y := x + 1; y < len(ms); y++ {
				sum += m.Dist[ms[x]][ms[y]]
				cnt++
			}
		}
		if cnt > 0 {
			c.MeanIntraDist = sum / float64(cnt)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Locations) != len(out[j].Locations) {
			return len(out[i].Locations) > len(out[j].Locations)
		}
		return out[i].Locations[0] < out[j].Locations[0]
	})
	return out
}
