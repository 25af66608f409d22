// Package similarity implements string similarity measures (Definition 7 of
// the paper): non-negative symmetric distance functions with d(x,x)=0. A
// measure is "strong" when it additionally satisfies the triangle inequality,
// which lets the SEA algorithm use the single-representative shortcut of
// Lemma 1 when comparing ontology nodes that contain several strings.
//
// The paper deliberately does not invent new measures; it plugs in standard
// ones from the IR literature. This package provides Levenshtein,
// Damerau-Levenshtein, Jaro, Jaro-Winkler, Monge-Elkan, Jaccard, cosine and a
// rule-based person-name measure, all behind one Measure interface.
package similarity

import (
	"math"
	"strings"
	"unicode/utf8"
)

// Measure is a string similarity measure d_s. Smaller is more similar;
// Distance(x, x) must be 0 and Distance must be symmetric. Strong reports
// whether the measure satisfies the triangle inequality.
type Measure interface {
	// Name identifies the measure (used by CLIs and experiment reports).
	Name() string
	// Distance returns the distance between two strings.
	Distance(x, y string) float64
	// Strong reports whether the triangle inequality holds.
	Strong() bool
}

// ---- Levenshtein ----

// Levenshtein is the classic edit distance with unit costs. It is strong (a
// metric), as the paper notes in Section 4.3.
type Levenshtein struct{}

func (Levenshtein) Name() string { return "levenshtein" }
func (Levenshtein) Strong() bool { return true }

func (Levenshtein) Distance(x, y string) float64 {
	return float64(editDistance([]rune(x), []rune(y), false))
}

// Damerau is the restricted Damerau-Levenshtein distance (optimal string
// alignment: edit distance with adjacent transposition, no substring edited
// twice). The restriction breaks the triangle inequality —
// d("ca","abc") = 3 > d("ca","ac") + d("ac","abc") = 2 — so it is not strong.
type Damerau struct{}

func (Damerau) Name() string { return "damerau" }
func (Damerau) Strong() bool { return false }

func (Damerau) Distance(x, y string) float64 {
	return float64(editDistance([]rune(x), []rune(y), true))
}

// WithinK reports whether the Levenshtein distance of a and b is at most k,
// without ever materializing the full O(n·m) DP matrix: only the band of
// cells within k of the diagonal can hold a value ≤ k, so the computation is
// O(k·min(n,m)) with an early exit as soon as a whole band row exceeds k.
// This is the verifier stage of the similarity candidate index and the
// threshold path of Within for the edit-distance measures.
func WithinK(a, b string, k int) bool {
	return editDistanceWithin([]rune(a), []rune(b), k, false) <= k
}

// WithinKDamerau is WithinK for the restricted Damerau-Levenshtein distance.
func WithinKDamerau(a, b string, k int) bool {
	return editDistanceWithin([]rune(a), []rune(b), k, true) <= k
}

// editDistanceWithin returns the (Damerau-)Levenshtein distance of a and b if
// it is ≤ k, and any value > k otherwise. Cells outside the |i-j| ≤ k band
// are never computed (they cannot be ≤ k: every off-diagonal step costs at
// least one edit), and the scan stops as soon as the minimum of a band row
// exceeds k. It allocates nothing when b has at most 64 runes.
func editDistanceWithin(a, b []rune, k int, transpose bool) int {
	if k < 0 {
		return 1 // any positive value > k
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b)-len(a) > k {
		return k + 1
	}
	if len(a) == 0 {
		return len(b)
	}
	const inf = int(^uint(0) >> 2)
	width := len(b) + 1
	var stack [3 * 65]int // three rows for a b of up to 64 runes
	rows := stack[:]
	if 3*width > len(stack) {
		rows = make([]int, 3*width)
	}
	prev2, prev, cur := rows[:width], rows[width:2*width], rows[2*width:3*width]
	for j := 0; j <= len(b); j++ {
		if j > k {
			prev[j] = inf
		} else {
			prev[j] = j
		}
	}
	for i := 1; i <= len(a); i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > len(b) {
			hi = len(b)
		}
		if lo > 1 {
			cur[lo-1] = inf
		} else {
			cur[0] = i
			if i > k {
				cur[0] = inf
			}
		}
		rowMin := cur[lo-1]
		for j := lo; j <= hi; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if v := cur[j-1] + 1; v < m {
				m = v
			}
			if v := prev[j] + 1; v < m {
				m = v
			}
			if transpose && i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := prev2[j-2] + 1; t < m {
					m = t
				}
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if hi < len(b) {
			cur[hi+1] = inf
		}
		if rowMin > k {
			return k + 1
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[len(b)]
}

// editDistance computes Levenshtein (or, with transpose, restricted
// Damerau-Levenshtein) distance: the banded kernel with a band that holds
// every cell, so it never exits early.
func editDistance(a, b []rune, transpose bool) int {
	return editDistanceWithin(a, b, max(len(a), len(b)), transpose)
}

// ---- Jaro and Jaro-Winkler ----

// Jaro is the Jaro metric expressed as a distance: 1 - jaro similarity,
// scaled by Scale so that thresholds are comparable with edit distances
// (scale 10 means a Jaro similarity of 0.8 becomes distance 2.0). A zero
// Scale means 1. Jaro is not strong (no triangle inequality).
type Jaro struct {
	Scale float64
}

func (Jaro) Name() string { return "jaro" }
func (Jaro) Strong() bool { return false }

func (j Jaro) Distance(x, y string) float64 {
	return scaleOf(j.Scale) * (1 - jaroSim([]rune(x), []rune(y)))
}

// scaleOf returns a measure's distance scale: s, or 1 for the zero value.
func scaleOf(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// JaroWinkler boosts Jaro similarity for strings sharing a prefix.
type JaroWinkler struct {
	Scale        float64 // distance scale, like Jaro.Scale
	PrefixWeight float64 // typically 0.1; 0 means 0.1
}

func (JaroWinkler) Name() string { return "jaro-winkler" }
func (JaroWinkler) Strong() bool { return false }

func (j JaroWinkler) Distance(x, y string) float64 {
	p := j.PrefixWeight
	if p == 0 {
		p = 0.1
	}
	rx, ry := []rune(x), []rune(y)
	sim := jaroSim(rx, ry)
	l := 0
	for l < len(rx) && l < len(ry) && rx[l] == ry[l] && l < 4 {
		l++
	}
	sim += float64(l) * p * (1 - sim)
	return scaleOf(j.Scale) * (1 - sim)
}

func jaroSim(a, b []rune) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	window := len(a)
	if len(b) > window {
		window = len(b)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	aMatch := make([]bool, len(a))
	bMatch := make([]bool, len(b))
	matches := 0
	for i := range a {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(b) {
			hi = len(b)
		}
		for k := lo; k < hi; k++ {
			if !bMatch[k] && a[i] == b[k] {
				aMatch[i] = true
				bMatch[k] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	k := 0
	for i := range a {
		if !aMatch[i] {
			continue
		}
		for !bMatch[k] {
			k++
		}
		if a[i] != b[k] {
			transpositions++
		}
		k++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(a)) + m/float64(len(b)) + (m-t)/m) / 3
}

// ---- token measures ----

// Tokenize lower-cases s and splits it into maximal runs of letters and
// digits. Shared by the token-based measures and the xmldb term index.
// ASCII bytes are classified without UTF-8 decoding, and a token without
// upper-case letters is a substring of s; a caller that keeps a token after
// it is done with s should strings.Clone it.
func Tokenize(s string) []string {
	n := countTokens(s)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < len(s); {
		j := i
		for j < len(s) {
			_, size, alnum := runeAt(s, j)
			if !alnum {
				break
			}
			j += size
		}
		if j > i {
			out = append(out, strings.ToLower(s[i:j])) // s[i:j] itself when already lower-case ASCII
			i = j
		} else {
			_, size, _ := runeAt(s, i)
			i += size
		}
	}
	return out
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// Jaccard is 1 - |S∩T|/|S∪T| over token sets, scaled by Scale (0 means 1).
// It is strong: the Jaccard distance is a metric.
type Jaccard struct {
	Scale float64
}

func (Jaccard) Name() string { return "jaccard" }
func (Jaccard) Strong() bool { return true }

func (j Jaccard) Distance(x, y string) float64 {
	sx := tokenSet(x)
	sy := tokenSet(y)
	if len(sx) == 0 && len(sy) == 0 {
		return 0
	}
	inter := 0
	for t := range sx {
		if sy[t] {
			inter++
		}
	}
	union := len(sx) + len(sy) - inter
	return scaleOf(j.Scale) * (1 - float64(inter)/float64(union))
}

func tokenSet(s string) map[string]bool {
	set := map[string]bool{}
	for _, t := range Tokenize(s) {
		set[t] = true
	}
	return set
}

// Cosine is 1 - cosine similarity of token term-frequency vectors, scaled by
// Scale (0 means 1). Not strong.
type Cosine struct {
	Scale float64
}

func (Cosine) Name() string { return "cosine" }
func (Cosine) Strong() bool { return false }

func (c Cosine) Distance(x, y string) float64 {
	if x == y {
		return 0
	}
	return cosineDistance(scaleOf(c.Scale), termFreq(x), termFreq(y))
}

// cosineDistance is scale·(1 − cosine similarity) of two term-weight
// vectors; 0 when both are empty, scale when only one is.
func cosineDistance(scale float64, fx, fy map[string]float64) float64 {
	if len(fx) == 0 && len(fy) == 0 {
		return 0
	}
	var dot, nx, ny float64
	for t, v := range fx {
		dot += v * fy[t]
		nx += v * v
	}
	for _, v := range fy {
		ny += v * v
	}
	if nx == 0 || ny == 0 {
		return scale
	}
	d := scale * (1 - dot/(math.Sqrt(nx)*math.Sqrt(ny)))
	if d < 0 {
		return 0 // guard against floating-point overshoot
	}
	return d
}

func termFreq(s string) map[string]float64 {
	f := map[string]float64{}
	for _, t := range Tokenize(s) {
		f[t]++
	}
	return f
}

// ---- Monge-Elkan ----

// MongeElkan is the hybrid measure: for each token of x take the best
// (smallest) inner distance to a token of y, average, and symmetrise by
// taking the max of the two directions (so the result is a symmetric
// distance). Inner defaults to Levenshtein. Not strong.
type MongeElkan struct {
	Inner Measure
}

func (MongeElkan) Name() string { return "monge-elkan" }
func (MongeElkan) Strong() bool { return false }

func (m MongeElkan) Distance(x, y string) float64 {
	inner := m.Inner
	if inner == nil {
		inner = Levenshtein{}
	}
	tx := Tokenize(x)
	ty := Tokenize(y)
	if len(tx) == 0 && len(ty) == 0 {
		return 0
	}
	d1 := mongeDir(inner, tx, ty)
	d2 := mongeDir(inner, ty, tx)
	if d2 > d1 {
		return d2
	}
	return d1
}

func mongeDir(inner Measure, from, to []string) float64 {
	if len(from) == 0 || len(to) == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for _, a := range from {
		best := math.Inf(1)
		for _, b := range to {
			if d := inner.Distance(a, b); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(len(from))
}

// ---- registry ----

// ByName returns a measure by its Name, or nil if unknown. Scaled variants
// use sensible defaults (Jaro/cosine scaled by 10 so thresholds line up with
// edit-distance-style epsilons).
func ByName(name string) Measure {
	switch name {
	case "levenshtein":
		return Levenshtein{}
	case "damerau":
		return Damerau{}
	case "jaro":
		return Jaro{Scale: 10}
	case "jaro-winkler":
		return JaroWinkler{Scale: 10}
	case "jaccard":
		return Jaccard{Scale: 10}
	case "cosine":
		return Cosine{Scale: 10}
	case "monge-elkan":
		return MongeElkan{}
	case "name-rule":
		return NameRule{Fallback: Levenshtein{}}
	case "soundex":
		return Soundex{}
	default:
		return nil
	}
}

// Names lists the registered measure names.
func Names() []string {
	return []string{"levenshtein", "damerau", "jaro", "jaro-winkler",
		"jaccard", "cosine", "monge-elkan", "name-rule", "soundex"}
}
