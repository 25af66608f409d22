package similarity

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// nameParts are the name fragments the WithinEps property draws from: full
// and abbreviated given names, dropped middles, suffixes that invite
// concatenation ("Smith Jr" vs "SmithJr"), non-ASCII letters and near-miss
// surnames.
var nameParts = []string{
	"John", "J.", "Jon", "Jonathan", "D.", "Smith", "Smyth", "Smiht", "Jr",
	"SmithJr", "Jeffrey", "Jeff", "Ullman", "Ulmlan", "José", "Jose",
	"Müller", "Muller", "van", "der", "Gian", "Luigi", "GianLuigi", "Ferrari",
	"MARCO", "marco", "Mauro", "Ab", "ab", "x", "9",
}

// randomName joins zero to four name parts with spaces, commas, hyphens or
// nothing, so single-token fallbacks and concatenations both occur.
func randomName(r *rand.Rand) string {
	var b strings.Builder
	n := r.Intn(5)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString([]string{" ", " ", ", ", "-", ""}[r.Intn(5)])
		}
		b.WriteString(nameParts[r.Intn(len(nameParts))])
	}
	return b.String()
}

// TestNameRuleWithinEpsMatchesDistance: the thresholded name rule decides
// exactly Distance(x, y) ≤ eps, for both fallbacks.
func TestNameRuleWithinEpsMatchesDistance(t *testing.T) {
	epsilons := []float64{0, 1, 2, 2.5, 3, 4}
	for _, m := range []NameRule{{}, {Fallback: Damerau{}}} {
		check := func(x, y string) bool {
			d := m.Distance(x, y)
			for _, eps := range epsilons {
				if got := m.WithinEps(x, y, eps); got != (d <= eps) {
					t.Logf("WithinEps(%q, %q, %g) = %v, Distance = %g", x, y, eps, got, d)
					return false
				}
			}
			return true
		}
		pinned := [][2]string{
			{"John Smith Jr", "John SmithJr"},
			{"Smith Jr", "SmithJr"},
			{"J. Smith", "John Smith"},
			{"John D. Smith", "John Smith"},
			{"José Müller", "Jose Muller"},
			{"José Müller", "José Mueller"},
			{"Smith", "SMITH"},
			{"Smith", "Smyth"},
			{"Marco Ferrari", "Mauro Ferrari"},
			{"Gian Luigi Ferrari", "GianLuigi Ferrari"},
			{"", "x"},
		}
		for _, p := range pinned {
			if !check(p[0], p[1]) || !check(p[1], p[0]) {
				t.Errorf("%+v: pinned pair %q / %q disagrees", m, p[0], p[1])
			}
		}
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			return check(randomName(r), randomName(r))
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
			t.Errorf("%+v: %v", m, err)
		}
	}
}

// refTokenize is the rune-by-rune tokenizer Tokenize must agree with.
func refTokenize(s string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

// TestTokenizeMatchesReference: Tokenize's byte path for ASCII input and its
// rune path for the rest return what refTokenize returns, including on
// invalid UTF-8.
func TestTokenizeMatchesReference(t *testing.T) {
	alphabets := []string{"aZz09 .-_,'\tQx", "aZ9 .-éÉüÜß\u212a\xff"}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alphabet := []rune(alphabets[r.Intn(len(alphabets))])
		var b strings.Builder
		for n := r.Intn(24); n > 0; n-- {
			b.WriteRune(alphabet[r.Intn(len(alphabet))])
		}
		s := b.String()
		if r.Intn(8) == 0 {
			s += "\xc3" // a truncated rune
		}
		got, want := Tokenize(s), refTokenize(s)
		if !slices.Equal(got, want) {
			t.Logf("Tokenize(%q) = %q, reference %q", s, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	if Tokenize(" .,") != nil || Tokenize("") != nil {
		t.Error("token-free input should tokenize to nil")
	}
}

// TestOSAKernelMatchesEditDistance: the banded kernel returns the
// restricted Damerau distance when it is at most k and more than k
// otherwise, on both sides of its 64-rune stack-row bound.
func TestOSAKernelMatchesEditDistance(t *testing.T) {
	gen := func(r *rand.Rand) []rune {
		n := r.Intn(10)
		if r.Intn(10) == 0 {
			n = 60 + r.Intn(10)
		}
		out := make([]rune, n)
		for i := range out {
			out[i] = rune("abc"[r.Intn(3)])
		}
		return out
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)
		if r.Intn(4) == 0 && len(a) > 1 {
			b = append([]rune{}, a...)
			i := r.Intn(len(b) - 1)
			b[i], b[i+1] = b[i+1], b[i]
		}
		k := r.Intn(7) - 1
		d := refEditDistance(a, b, true)
		got := editDistanceWithin(a, b, k, true)
		if (got <= k) != (k >= 0 && d <= k) || (got <= k && got != d) {
			t.Logf("editDistanceWithin(%q, %q, %d) = %d, distance %d", string(a), string(b), k, got, d)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestNameRuleWithinEpsAllocs: ASCII name pairs with distant surnames are
// rejected without allocating.
func TestNameRuleWithinEpsAllocs(t *testing.T) {
	m := NameRule{Fallback: Damerau{}}
	allocs := testing.AllocsPerRun(100, func() {
		if m.WithinEps("Jeffrey D. Ullman", "Hector Garcia-Molina", 3) {
			t.Fatal("distant names judged within eps")
		}
	})
	if allocs != 0 {
		t.Errorf("surname rejection allocates %g times per call", allocs)
	}
}
