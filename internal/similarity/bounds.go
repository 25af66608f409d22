package similarity

import "math"

// LowerBounder is an optional extension of Measure: a cheap lower bound on
// Distance(x, y) that lets callers skip the full computation when the bound
// already exceeds their threshold. The SEA algorithm uses it to prune the
// quadratic pairwise-distance pass.
type LowerBounder interface {
	LowerBound(x, y string) float64
}

// LowerBound for Levenshtein: the length difference (every length-changing
// edit is one operation).
func (Levenshtein) LowerBound(x, y string) float64 { return lengthGap(x, y) }

// LowerBound for Damerau: same as Levenshtein (transpositions do not change
// length).
func (Damerau) LowerBound(x, y string) float64 { return lengthGap(x, y) }

// lengthGap is the difference of the rune counts of x and y.
func lengthGap(x, y string) float64 {
	return math.Abs(float64(len([]rune(x)) - len([]rune(y))))
}

// Thresholder is an optional extension of Measure: decide Distance(x, y) ≤ eps
// without computing the full distance. The edit-distance measures implement it
// with the banded DP of WithinK, which visits O(k·min(n,m)) cells instead of
// the full O(n·m) matrix and exits early once a whole band row exceeds k.
type Thresholder interface {
	WithinEps(x, y string, eps float64) bool
}

// WithinEps for Levenshtein: distances are integers, so ≤ eps ⟺ ≤ ⌊eps⌋.
func (Levenshtein) WithinEps(x, y string, eps float64) bool {
	return WithinK(x, y, floorEps(eps))
}

// WithinEps for Damerau: same banded band, with the transposition cell.
func (Damerau) WithinEps(x, y string, eps float64) bool {
	return WithinKDamerau(x, y, floorEps(eps))
}

func floorEps(eps float64) int {
	if eps < 0 {
		return -1
	}
	return int(eps)
}

// Within reports whether d.Distance(x, y) ≤ eps, using the measure's lower
// bound (if it has one) to short-circuit and its thresholded form (if it has
// one) instead of the full distance.
func Within(d Measure, x, y string, eps float64) bool {
	if lb, ok := d.(LowerBounder); ok && lb.LowerBound(x, y) > eps {
		return false
	}
	if th, ok := d.(Thresholder); ok {
		return th.WithinEps(x, y, eps)
	}
	return d.Distance(x, y) <= eps
}
