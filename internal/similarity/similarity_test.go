package similarity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		x, y string
		want float64
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"model", "models", 1},
		{"relation", "relational", 2},
		{"flaw", "lawn", 2},
		{"日本語", "日本", 1}, // rune-wise, not byte-wise
	}
	var m Levenshtein
	for _, c := range cases {
		if got := m.Distance(c.x, c.y); got != c.want {
			t.Errorf("levenshtein(%q, %q) = %g, want %g", c.x, c.y, got, c.want)
		}
	}
}

func TestDamerauTransposition(t *testing.T) {
	var lev Levenshtein
	var dam Damerau
	if lev.Distance("Ullman", "Ulmlan") != 2 {
		t.Error("levenshtein should charge 2 for a transposition")
	}
	if dam.Distance("Ullman", "Ulmlan") != 1 {
		t.Error("damerau should charge 1 for a transposition")
	}
	if dam.Distance("abc", "cab") != 2 {
		t.Errorf("damerau(abc, cab) = %g, want 2", dam.Distance("abc", "cab"))
	}
}

func TestJaroKnownBehaviour(t *testing.T) {
	j := Jaro{}
	if d := j.Distance("martha", "martha"); d != 0 {
		t.Errorf("jaro identical = %g", d)
	}
	dm := j.Distance("martha", "marhta")
	if dm <= 0 || dm >= 0.1 {
		t.Errorf("jaro(martha, marhta) = %g, want small positive", dm)
	}
	if d := j.Distance("abc", "xyz"); d != 1 {
		t.Errorf("jaro disjoint = %g, want 1", d)
	}
	if d := j.Distance("", ""); d != 0 {
		t.Errorf("jaro empty = %g", d)
	}
	if d := j.Distance("a", ""); d != 1 {
		t.Errorf("jaro vs empty = %g", d)
	}
	// Winkler boosts shared prefixes.
	jw := JaroWinkler{}
	if jw.Distance("martha", "marhta") >= dm {
		t.Error("jaro-winkler should be closer than jaro for shared prefix")
	}
}

func TestJaccardAndCosine(t *testing.T) {
	jac := Jaccard{}
	if d := jac.Distance("a b c", "a b c"); d != 0 {
		t.Errorf("jaccard identical = %g", d)
	}
	if d := jac.Distance("a b", "c d"); d != 1 {
		t.Errorf("jaccard disjoint = %g", d)
	}
	if d := jac.Distance("a b", "b c"); math.Abs(d-2.0/3) > 1e-9 {
		t.Errorf("jaccard overlap = %g, want 2/3", d)
	}
	cos := Cosine{}
	if d := cos.Distance("x y", "x y"); math.Abs(d) > 1e-9 {
		t.Errorf("cosine identical = %g", d)
	}
	if d := cos.Distance("x", "y"); math.Abs(d-1) > 1e-9 {
		t.Errorf("cosine disjoint = %g", d)
	}
	// Punctuation-insensitive: the SIGMOD trailing-dot case.
	if d := jac.Distance("Securing XML Documents", "Securing XML Documents."); d != 0 {
		t.Errorf("jaccard should ignore punctuation, got %g", d)
	}
}

func TestMongeElkan(t *testing.T) {
	m := MongeElkan{}
	if d := m.Distance("Jeffrey Ullman", "Jeffrey Ullman"); d != 0 {
		t.Errorf("monge-elkan identical = %g", d)
	}
	near := m.Distance("Jeffrey D Ullman", "Jeffrey Ullman")
	far := m.Distance("Jeffrey Ullman", "Paolo Ciancarini")
	if near >= far {
		t.Errorf("monge-elkan ordering wrong: near=%g far=%g", near, far)
	}
	// Symmetric by construction (max of both directions).
	if m.Distance("a b", "a") != m.Distance("a", "a b") {
		t.Error("monge-elkan must be symmetric")
	}
}

func TestNameRuleCases(t *testing.T) {
	n := NameRule{}
	cases := []struct {
		x, y     string
		lo, hi   float64
		scenario string
	}{
		{"Jeffrey D. Ullman", "Jeffrey D. Ullman", 0, 0, "identical"},
		{"Gian Luigi Ferrari", "GianLuigi Ferrari", 1, 1, "concatenation"},
		{"Jeffrey D. Ullman", "J. D. Ullman", 1, 1, "first initial"},
		{"Jeffrey D. Ullman", "J. Ullman", 2, 2, "initial + dropped middle"},
		{"Jeffrey Ullman", "Jeff Ullman", 1, 1, "shortened given name"},
		{"Marco Ferrari", "Mauro Ferrari", 2, 2, "paper's 'quite similar' pair"},
		{"Marco Ferrari", "GianLuigi Ferrari", 4, 100, "paper's 'much less similar' pair"},
		{"Marco Ferrari", "Marco Bertino", 5, 100, "different surnames"},
		{"Jeffrey D. Ullman", "J. D. Ulmlan", 3, 3, "initials + surname transposition"},
	}
	for _, c := range cases {
		got := n.Distance(c.x, c.y)
		if got < c.lo || got > c.hi {
			t.Errorf("%s: d(%q, %q) = %g, want in [%g, %g]", c.scenario, c.x, c.y, got, c.lo, c.hi)
		}
		if back := n.Distance(c.y, c.x); back != got {
			t.Errorf("%s: asymmetric (%g vs %g)", c.scenario, got, back)
		}
	}
	// Paper's Section 2.2 ordering: ds(GianLuigi, Gian Luigi) < ds(Marco,
	// Mauro) < ds(Marco, GianLuigi).
	d1 := n.Distance("Gian Luigi Ferrari", "GianLuigi Ferrari")
	d2 := n.Distance("Marco Ferrari", "Mauro Ferrari")
	d3 := n.Distance("Marco Ferrari", "GianLuigi Ferrari")
	if !(d1 < d2 && d2 < d3) {
		t.Errorf("paper ordering violated: %g, %g, %g", d1, d2, d3)
	}
}

func TestNameRuleFallback(t *testing.T) {
	n := NameRule{}
	// Single tokens fall back to edit distance.
	if d := n.Distance("model", "models"); d != 1 {
		t.Errorf("single-token fallback = %g, want 1", d)
	}
	if d := n.Distance("", "x"); d != 1 {
		t.Errorf("empty vs x = %g", d)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Securing XML-Documents, 2nd ed.")
	want := []string{"securing", "xml", "documents", "2nd", "ed"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if len(Tokenize("")) != 0 {
		t.Error("Tokenize(empty) should be empty")
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		m := ByName(name)
		if m == nil {
			t.Errorf("ByName(%q) = nil", name)
			continue
		}
		if m.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, m.Name())
		}
	}
	if ByName("nope") != nil {
		t.Error("unknown measure should be nil")
	}
}

func TestWithinUsesLowerBound(t *testing.T) {
	// Levenshtein's lower bound is the length difference.
	var lev Levenshtein
	if lev.LowerBound("ab", "abcdef") != 4 {
		t.Errorf("LowerBound = %g", lev.LowerBound("ab", "abcdef"))
	}
	if Within(lev, "ab", "abcdef", 3) {
		t.Error("Within should refuse when lower bound exceeds eps")
	}
	if !Within(lev, "model", "models", 1) {
		t.Error("Within should accept close strings")
	}
}

// randomString generates short strings over a small alphabet so that
// interesting collisions happen.
func randomString(rng *rand.Rand) string {
	n := rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = "ab .J"[rng.Intn(5)]
	}
	return string(b)
}

// TestQuickMeasureAxioms checks Definition 7 for every registered measure:
// d(x,x) = 0, symmetry, non-negativity.
func TestQuickMeasureAxioms(t *testing.T) {
	for _, name := range Names() {
		m := ByName(name)
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			x := randomString(rng)
			y := randomString(rng)
			if m.Distance(x, x) != 0 {
				t.Logf("%s: d(%q,%q) != 0", name, x, x)
				return false
			}
			dxy := m.Distance(x, y)
			if dxy < 0 || math.IsNaN(dxy) {
				t.Logf("%s: d(%q,%q) = %g negative/NaN", name, x, y, dxy)
				return false
			}
			if dyx := m.Distance(y, x); math.Abs(dxy-dyx) > 1e-9 {
				t.Logf("%s: asymmetric d(%q,%q)=%g d(%q,%q)=%g", name, x, y, dxy, y, x, dyx)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestQuickTriangleInequality checks the "strong" flag: every measure that
// claims Strong() must satisfy the triangle inequality.
func TestQuickTriangleInequality(t *testing.T) {
	for _, name := range Names() {
		m := ByName(name)
		if !m.Strong() {
			continue
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			x, y, z := randomString(rng), randomString(rng), randomString(rng)
			if m.Distance(x, y)+m.Distance(y, z) < m.Distance(x, z)-1e-9 {
				t.Logf("%s: triangle violated for %q %q %q", name, x, y, z)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestTriangleInequalityPinned holds the triples random search is unlikely
// to hit: every measure claiming Strong() must satisfy the triangle
// inequality on them. The first triple is why optimal string alignment
// (restricted Damerau) is not strong: d("ca","abc") = 3 but the detour
// through "ac" costs 1 + 1.
func TestTriangleInequalityPinned(t *testing.T) {
	triples := [][3]string{{"ca", "ac", "abc"}}
	if d := (Damerau{}).Distance("ca", "abc"); d != 3 {
		t.Fatalf("damerau(ca, abc) = %g, want 3", d)
	}
	for _, name := range Names() {
		m := ByName(name)
		if !m.Strong() {
			continue
		}
		for _, tr := range triples {
			x, y, z := tr[0], tr[1], tr[2]
			if m.Distance(x, y)+m.Distance(y, z) < m.Distance(x, z)-1e-9 {
				t.Errorf("%s claims Strong() but d(%q,%q) = %g > d(%q,%q) + d(%q,%q) = %g",
					name, x, z, m.Distance(x, z), x, y, y, z, m.Distance(x, y)+m.Distance(y, z))
			}
		}
	}
}

// TestQuickLowerBoundSound checks that LowerBound never exceeds Distance.
func TestQuickLowerBoundSound(t *testing.T) {
	for _, name := range Names() {
		m := ByName(name)
		lb, ok := m.(LowerBounder)
		if !ok {
			continue
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			x, y := randomString(rng), randomString(rng)
			return lb.LowerBound(x, y) <= m.Distance(x, y)+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
