package similarity

import (
	"math"
)

// TFIDF is a corpus-weighted cosine distance: tokens are weighted by
// tf · log(N/df) against document frequencies collected from a corpus, so
// ubiquitous tokens ("the", "conference") contribute little and rare tokens
// dominate. The paper cites exactly this family ("token-based distance like
// Jaccard similarity and cosine similarity" from the SecondString toolkit);
// the corpus statistics make it the measure of choice for titles. Build one
// with NewTFIDF over the document texts, then use it like any Measure.
//
// Distance is 1 - weighted cosine similarity, scaled by Scale (0 ⇒ 1).
// Unknown tokens fall back to df = 1 (maximally informative). Not strong.
type TFIDF struct {
	Scale float64

	df   map[string]int
	docs int
}

// NewTFIDF collects document frequencies from the given document texts.
func NewTFIDF(scale float64, docs []string) *TFIDF {
	m := &TFIDF{Scale: scale, df: map[string]int{}, docs: len(docs)}
	for _, d := range docs {
		seen := map[string]bool{}
		for _, tok := range Tokenize(d) {
			if !seen[tok] {
				seen[tok] = true
				m.df[tok]++
			}
		}
	}
	return m
}

func (*TFIDF) Name() string { return "tfidf" }
func (*TFIDF) Strong() bool { return false }

// idf returns log(1 + N/df): always positive, gently bounded for unknown
// tokens.
func (m *TFIDF) idf(tok string) float64 {
	df := m.df[tok]
	if df < 1 {
		df = 1
	}
	n := m.docs
	if n < 1 {
		n = 1
	}
	return math.Log(1 + float64(n)/float64(df))
}

func (m *TFIDF) Distance(x, y string) float64 {
	if x == y {
		return 0
	}
	return cosineDistance(scaleOf(m.Scale), m.weights(x), m.weights(y))
}

func (m *TFIDF) weights(s string) map[string]float64 {
	w := map[string]float64{}
	for _, tok := range Tokenize(s) {
		w[tok] += m.idf(tok)
	}
	return w
}

// DocFrequency exposes a token's document frequency (for tests and tuning).
func (m *TFIDF) DocFrequency(tok string) int { return m.df[tok] }

// DocCount returns the number of corpus documents the statistics come from.
func (m *TFIDF) DocCount() int { return m.docs }
