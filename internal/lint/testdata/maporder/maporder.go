// Package maporderdata seeds maporder violations for the golden harness:
// map iteration feeding an append that is never sorted, a direct
// write/encode sink, or an argmin/argmax that stores the loop's key or
// value is flagged; sorted collections, loop-local slices, value-only
// min/max, key tie-breaks and //lint:allow are not.
package maporderdata

import (
	"fmt"
	"io"
	"sort"
)

// badAppend collects map keys and returns them unsorted — the classic
// same-seed-runs-diverge bug.
func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "maporder: append to \"keys\" inside range over map without a deterministic sort after the loop"
	}
	return keys
}

// badFprintf serializes entries in iteration order; no later sort can
// repair output that already escaped.
func badFprintf(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want "maporder: fmt.Fprintf inside range over map emits entries in nondeterministic order"
	}
}

// badEncode streams each value through an encoder-shaped sink.
func badEncode(enc interface{ Encode(any) error }, m map[string]int) {
	for _, v := range m {
		enc.Encode(v) // want "maporder: enc.Encode inside range over map emits entries in nondeterministic order"
	}
}

// badWrite emits raw bytes per entry.
func badWrite(w io.Writer, m map[string][]byte) {
	for _, b := range m {
		w.Write(b) // want "maporder: w.Write inside range over map emits entries in nondeterministic order"
	}
}

// goodSorted collects then sorts: the accepted idiom.
func goodSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goodNestedSort appends under two loop levels and sorts after the OUTER
// loop; the positional search must see past the inner loop boundary.
func goodNestedSort(m map[string][]string) []string {
	var out []string
	for _, vs := range m {
		for _, v := range vs {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// goodLoopLocal appends to a slice declared inside the loop body: rebuilt
// per iteration, its order cannot depend on which key came first.
func goodLoopLocal(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var kept []int
		for _, v := range vs {
			if v > 0 {
				kept = append(kept, v)
			}
		}
		total += len(kept)
	}
	return total
}

// goodSliceRange ranges over a slice, not a map: iteration order is the
// slice's own.
func goodSliceRange(w io.Writer, items []string) {
	for _, it := range items {
		fmt.Fprintln(w, it)
	}
}

// allowed documents an order-invariant sink the analyzer cannot see
// through (summation commutes).
func allowed(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		//lint:allow maporder consumed by an order-invariant sum
		vals = append(vals, v)
	}
	return vals
}

// badArgmin keeps the nearest key: two keys at the same distance resolve
// by whichever the map yields first.
func badArgmin(m map[string]float64, x float64) string {
	best, bestD := "", 1e308
	for k, c := range m {
		if d := abs(c - x); d < bestD {
			best, bestD = k, d // want "maporder: \"best\" stored under an ordering comparison inside range over map"
		}
	}
	return best
}

type scored struct {
	name  string
	score float64
}

// badArgmaxValue keeps the best-scoring value; entries with equal scores
// but different names tie.
func badArgmaxValue(m map[string]scored) scored {
	var best scored
	for _, v := range m {
		if v.score > best.score {
			best = v // want "maporder: \"best\" stored under an ordering comparison inside range over map"
		}
	}
	return best
}

// goodValueMax keeps only the largest value, which is the same whatever
// order the map yields its entries in.
func goodValueMax(m map[string]int) int {
	max := 0
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// goodKeyTieBreak breaks distance ties on the key itself, so the selection
// is a total order.
func goodKeyTieBreak(m map[string]float64, x float64) string {
	best, bestD := "", 1e308
	for k, c := range m {
		if d := abs(c - x); d < bestD || d == bestD && k < best {
			best, bestD = k, d
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
