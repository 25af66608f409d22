package similarity

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestWithinKMatchesFullDP: the banded threshold computation must agree with
// the full DP for every (pair, k), for both measures.
func TestWithinKMatchesFullDP(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := []rune("abcde")
		gen := func() string {
			out := make([]rune, r.Intn(12))
			for i := range out {
				out[i] = alpha[r.Intn(len(alpha))]
			}
			return string(out)
		}
		a, b := gen(), gen()
		k := r.Intn(6) - 1 // includes k = -1
		lev := refEditDistance([]rune(a), []rune(b), false)
		dam := refEditDistance([]rune(a), []rune(b), true)
		if WithinK(a, b, k) != (k >= 0 && lev <= k) {
			t.Logf("WithinK(%q,%q,%d) disagrees with distance %d", a, b, k, lev)
			return false
		}
		if WithinKDamerau(a, b, k) != (k >= 0 && dam <= k) {
			t.Logf("WithinKDamerau(%q,%q,%d) disagrees with distance %d", a, b, k, dam)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestWithinUsesThreshold: Within on the edit measures must agree with the
// exact distance across fractional and negative epsilons.
func TestWithinUsesThreshold(t *testing.T) {
	cases := []struct{ x, y string }{
		{"kitten", "sitting"}, {"abc", "cba"}, {"", ""}, {"", "abc"},
		{"flaw", "lawn"}, {"gumbo", "gambol"},
	}
	for _, m := range []Measure{Levenshtein{}, Damerau{}} {
		for _, c := range cases {
			d := m.Distance(c.x, c.y)
			for _, eps := range []float64{-1, 0, 0.5, 1, 1.9, 2, 3, 10} {
				got := Within(m, c.x, c.y, eps)
				want := d <= eps
				if got != want {
					t.Errorf("%s Within(%q,%q,%v) = %v, want %v (d=%v)",
						m.Name(), c.x, c.y, eps, got, want, d)
				}
			}
		}
	}
}

// refEditDistance is the plain full-matrix Levenshtein (with transpose,
// restricted Damerau-Levenshtein) DP: the reference the banded kernel is
// checked against.
func refEditDistance(a, b []rune, transpose bool) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev2 := make([]int, len(b)+1)
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := 0; j <= len(b); j++ {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := min(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
			if transpose && i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := prev2[j-2] + 1; t < m {
					m = t
				}
			}
			cur[j] = m
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[len(b)]
}
