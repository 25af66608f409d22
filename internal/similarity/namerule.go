package similarity

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// NameRule is the rule-based person-name measure the paper sketches for the
// SIGMOD/DBLP application: "in our SIGMOD/DBLP application ... we could write
// a set of rules describing when two names are considered similar". It
// understands the ways bibliographies mangle author names:
//
//   - abbreviated given names: "J. Ullman" vs "Jeffrey Ullman" (distance 1
//     per abbreviated token);
//   - dropped middle names: "Jeffrey Ullman" vs "Jeffrey D. Ullman"
//     (distance 1 per missing token);
//   - concatenation/spacing errors: "GianLuigi Ferrari" vs "Gian Luigi
//     Ferrari" (distance 1);
//   - typos in any token, charged via edit distance.
//
// Different surnames are penalised heavily (2 per edit), so "Marco Ferrari"
// vs "Mauro Ferrari" (same surname, 2-edit given names) sits near the
// SEA threshold while "Marco Ferrari" vs "GianLuigi Ferrari" is far away —
// mirroring the d_s examples in Section 2.2 of the paper.
//
// Strings that do not look like person names (zero or one token) fall back
// to Fallback (Levenshtein if nil). NameRule is not strong.
type NameRule struct {
	Fallback Measure
}

func (NameRule) Name() string { return "name-rule" }
func (NameRule) Strong() bool { return false }

func (n NameRule) fallback() Measure {
	if n.Fallback == nil {
		return Levenshtein{}
	}
	return n.Fallback
}

func (n NameRule) Distance(x, y string) float64 {
	if x == y {
		return 0
	}
	tx := Tokenize(x)
	ty := Tokenize(y)
	if len(tx) < 2 || len(ty) < 2 {
		return n.fallback().Distance(x, y)
	}
	// Concatenation/spacing error: identical once whitespace is removed.
	if foldedEqual(x, y) {
		return 1
	}
	return nameScore(tx, ty)
}

// nameScore is Distance for token lists of two or more tokens each whose
// concatenations differ: the surname edit distance counted twice plus the
// alignment cost of the given names.
func nameScore(tx, ty []string) float64 {
	surX, surY := tx[len(tx)-1], ty[len(ty)-1]
	givenX, givenY := tx[:len(tx)-1], ty[:len(ty)-1]
	score := 2 * float64(editDistance([]rune(surX), []rune(surY), true))
	return score + alignGiven(givenX, givenY)
}

// WithinEps reports Distance(x, y) ≤ eps, deciding most pairs without
// tokenizing. The concatenation rule is checked in place and before the
// surname bound: "John Smith Jr" vs "John SmithJr" is distance 1 although
// their surnames are 5 edits apart. For ASCII names the surname term alone
// costs 2 per edit, so a surname distance above ⌊eps/2⌋ rejects the pair.
func (n NameRule) WithinEps(x, y string, eps float64) bool {
	if eps < 0 {
		return false
	}
	if x == y {
		return true
	}
	if countTokens(x) < 2 || countTokens(y) < 2 {
		return Within(n.fallback(), x, y, eps)
	}
	if foldedEqual(x, y) {
		return 1 <= eps
	}
	if isASCII(x) && isASCII(y) {
		// Short rune slices that do not escape stay on the stack.
		sx, sy := []rune(lastToken(x)), []rune(lastToken(y))
		for _, rs := range [2][]rune{sx, sy} {
			for i, r := range rs {
				rs[i] = unicode.ToLower(r)
			}
		}
		if k := int(eps / 2); editDistanceWithin(sx, sy, k, true) > k {
			return false
		}
	}
	return nameScore(Tokenize(x), Tokenize(y)) <= eps
}

// countTokens returns len(Tokenize(s)) without allocating.
func countTokens(s string) int {
	n, in := 0, false
	for i := 0; i < len(s); {
		_, size, alnum := runeAt(s, i)
		if alnum && !in {
			n++
		}
		in, i = alnum, i+size
	}
	return n
}

// foldedEqual reports strings.Join(Tokenize(x), "") == strings.Join(Tokenize(y), ""):
// x and y agree once everything but letters and digits is dropped and case
// is folded. It compares rune by rune without allocating.
func foldedEqual(x, y string) bool {
	i, j := 0, 0
	for {
		var rx, ry rune
		rx, i = nextFolded(x, i)
		ry, j = nextFolded(y, j)
		if rx != ry {
			return false
		}
		if rx < 0 {
			return true
		}
	}
}

// nextFolded returns the lower-cased next letter or digit of s at or after
// byte offset i and the offset just past it, or -1 at the end of s.
func nextFolded(s string, i int) (rune, int) {
	for i < len(s) {
		r, size, alnum := runeAt(s, i)
		i += size
		if alnum {
			return unicode.ToLower(r), i
		}
	}
	return -1, i
}

// runeAt decodes the rune at byte offset i of s and reports whether Tokenize
// keeps it (a letter or a digit).
func runeAt(s string, i int) (r rune, size int, alnum bool) {
	r, size = rune(s[i]), 1
	if r >= utf8.RuneSelf {
		r, size = utf8.DecodeRuneInString(s[i:])
	}
	return r, size, unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lastToken returns the last maximal run of letters and digits in s, not
// case-folded: the surname Tokenize would return, before lowering.
func lastToken(s string) string {
	alnum := func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }
	s = s[:strings.LastIndexFunc(s, alnum)+1]
	return s[strings.LastIndexFunc(s, func(r rune) bool { return !alnum(r) })+1:]
}

// alignGiven scores two given-name token sequences with a token-level
// alignment: matching tokens are free, abbreviations and shortened forms
// cost 1, near-miss tokens cost their (capped) edit distance, and dropped
// tokens cost 1 each. The alignment (rather than a positional zip) keeps
// "Alberto M. Garcia" vs "A. Garcia" cheap: initial + dropped middle.
func alignGiven(a, b []string) float64 {
	dp := make([][]float64, len(a)+1)
	for i := range dp {
		dp[i] = make([]float64, len(b)+1)
	}
	for i := 1; i <= len(a); i++ {
		dp[i][0] = dp[i-1][0] + gapCost(a[i-1])
	}
	for j := 1; j <= len(b); j++ {
		dp[0][j] = dp[0][j-1] + gapCost(b[j-1])
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			m := dp[i-1][j-1] + tokenCost(a[i-1], b[j-1])
			if v := dp[i-1][j] + gapCost(a[i-1]); v < m {
				m = v
			}
			if v := dp[i][j-1] + gapCost(b[j-1]); v < m {
				m = v
			}
			dp[i][j] = m
		}
	}
	return dp[len(a)][len(b)]
}

// gapCost charges 1 for dropping an initial (a one-letter token, the usual
// dropped middle name) and 2 for dropping a full token, so that two entirely
// different given names do not look like a pair of cheap drops.
func gapCost(tok string) float64 {
	if len(tok) <= 1 {
		return 1
	}
	return 2
}

// tokenCost scores one given-name token pair.
func tokenCost(a, b string) float64 {
	switch {
	case a == b:
		return 0
	case isInitialOf(a, b) || isInitialOf(b, a):
		return 1 // abbreviated given name
	case isPrefixName(a, b) || isPrefixName(b, a):
		return 1 // shortened given name ("Jeff" for "Jeffrey")
	default:
		d := float64(editDistance([]rune(a), []rune(b), true))
		if d > 4 {
			d = 4
		}
		return d
	}
}

// isInitialOf reports whether a is a single-letter initial of b.
func isInitialOf(a, b string) bool {
	return len(a) == 1 && len(b) > 1 && b[0] == a[0]
}

// isPrefixName reports whether a is a shortened form of b: a proper prefix
// of at least three letters ("jeff" of "jeffrey").
func isPrefixName(a, b string) bool {
	return len(a) >= 3 && len(b) > len(a) && strings.HasPrefix(b, a)
}
