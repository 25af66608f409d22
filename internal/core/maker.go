package core

import (
	"strings"

	"repro/internal/ontology"
	"repro/internal/similarity"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// MakerConfig controls the Ontology Maker.
type MakerConfig struct {
	// ValueTags lists element tags whose content values are added to the
	// isa hierarchy as instance terms below the tag (e.g. author names
	// below "author"). The paper treats values as types below their type
	// (Section 5, "each value of a type may also be viewed as a type").
	ValueTags []string
	// TokenTags lists element tags whose content is tokenized and whose
	// lexicon-known tokens are added below their hypernym chains (e.g.
	// title words such as "relational" below "data model").
	TokenTags []string
	// MaxValueTerms caps how many distinct content values per tag enter the
	// ontology (0 = unlimited). The scalability experiments use this to
	// control ontology size the way the paper varies it.
	MaxValueTerms int
	// IncludeAttributes adds @attr pseudo-tags to the part-of hierarchy.
	IncludeAttributes bool
}

// DefaultMakerConfig ontologizes the bibliographic value and token tags used
// throughout the paper's examples.
func DefaultMakerConfig() MakerConfig {
	return MakerConfig{
		ValueTags: []string{"author", "editor", "booktitle", "conference", "journal", "affiliation"},
		TokenTags: []string{"title"},
	}
}

// makerState accumulates the run-wide Ontology Maker byproducts; a fresh one
// per MakeOntologies keeps half-built sets out of the live System (the
// snapshot carries the finished maps).
type makerState struct {
	valueTags      map[string]bool
	valueTruncated bool
}

// makeOntology implements the Ontology Maker for one instance: structural
// part-of extraction, lexicon-driven isa/part-of edges, and value/token
// instance terms.
func (s *System) makeOntology(in *Instance, mk *makerState) *ontology.Ontology {
	cfg := s.MakerConfig
	ont := ontology.NewOntology()
	isa := ont.Isa()
	part := ont.PartOf()

	valueTag := map[string]bool{}
	for _, t := range cfg.ValueTags {
		valueTag[t] = true
		mk.valueTags[t] = true
	}
	tokenTag := map[string]bool{}
	for _, t := range cfg.TokenTags {
		tokenTag[t] = true
	}

	valueCount := map[string]int{}
	seenValue := map[[2]string]bool{}
	seenToken := map[string]bool{}

	for _, doc := range in.Col.Docs() {
		doc.Walk(func(n *tree.Node) bool {
			tag := n.Tag
			if !cfg.IncludeAttributes && len(tag) > 0 && tag[0] == '@' {
				return true
			}
			// Structural part-of: child tag is part of parent tag
			// (author part-of article, as in the paper's Example 7).
			part.AddNode(tag)
			isa.AddNode(tag)
			if n.Parent != nil {
				ptag := n.Parent.Tag
				if ptag != tag {
					_ = part.AddEdge(tag, ptag) // cycle-safe: skip on error
				}
			}
			// Value instance terms below their tag; lexicon-known values
			// additionally get their hypernym (isa) and holonym (part-of)
			// chains, which is what answers the paper's "authors from the
			// US government" motivating query.
			if valueTag[tag] && n.Content != "" {
				key := [2]string{tag, n.Content}
				if !seenValue[key] {
					if cfg.MaxValueTerms > 0 && valueCount[tag] >= cfg.MaxValueTerms {
						mk.valueTruncated = true
					} else {
						seenValue[key] = true
						valueCount[tag]++
						_ = isa.AddEdge(n.Content, tag)
						s.addHypernymChain(isa, n.Content)
						if len(s.Lexicon.Holonyms(n.Content)) > 0 {
							part.AddNode(n.Content)
							s.addHolonymChain(part, n.Content)
						}
					}
				}
			}
			// Token terms below their lexicon hypernym chains.
			if tokenTag[tag] && n.Content != "" {
				for _, tok := range similarity.Tokenize(xpath.TextValue(n)) {
					if seenToken[tok] {
						continue
					}
					// The hierarchy outlives the document text tok may share.
					tok = strings.Clone(tok)
					seenToken[tok] = true
					s.addHypernymChain(isa, tok)
				}
			}
			return true
		})
	}

	// Lexicon-driven edges between the tags present in this instance. A
	// tag's lexicon synonym is bridged in as a superterm (booktitle ≤
	// conference): hierarchies are acyclic, so within one instance the
	// equivalence is represented one-directionally; across instances the
	// derived equality constraints merge synonyms properly at fusion time.
	for _, tag := range in.Col.TreeCollection().Tags() {
		if len(tag) > 0 && tag[0] == '@' {
			continue
		}
		s.addHypernymChain(isa, tag)
		for _, syn := range s.Lexicon.Synonyms(tag) {
			isa.AddNode(tag)
			isa.AddNode(syn)
			_ = isa.AddEdge(tag, syn)
			s.addHypernymChain(isa, syn)
		}
		for _, whole := range s.Lexicon.Holonyms(tag) {
			part.AddNode(whole)
			_ = part.AddEdge(tag, whole)
			s.addHolonymChain(part, whole)
		}
	}
	return ont
}

// addHypernymChain inserts term and its transitive hypernym chain into the
// isa hierarchy (when the lexicon knows the term).
func (s *System) addHypernymChain(isa *ontology.Hierarchy, term string) {
	sups := s.Lexicon.Hypernyms(term)
	if len(sups) == 0 {
		return
	}
	isa.AddNode(term)
	stack := []string{term}
	seen := map[string]bool{term: true}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, sup := range s.Lexicon.Hypernyms(cur) {
			isa.AddNode(sup)
			_ = isa.AddEdge(cur, sup)
			if !seen[sup] {
				seen[sup] = true
				stack = append(stack, sup)
			}
		}
	}
}

// addHolonymChain inserts the transitive holonym chain above term into the
// part-of hierarchy.
func (s *System) addHolonymChain(part *ontology.Hierarchy, term string) {
	stack := []string{term}
	seen := map[string]bool{term: true}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, whole := range s.Lexicon.Holonyms(cur) {
			part.AddNode(whole)
			_ = part.AddEdge(cur, whole)
			if !seen[whole] {
				seen[whole] = true
				stack = append(stack, whole)
			}
		}
	}
}

// deriveConstraints implements the automatic part of interoperation
// constraint discovery (the paper: WordNet identifies "isa, equivalent, and
// part-of relationships ... these lead to a set of interoperation
// constraints"): identical terms in different hierarchies are constrained
// equal; lexicon synonyms are constrained equal; lexicon-known isa pairs
// between tags are constrained ≤.
func (s *System) deriveConstraints(hs []*ontology.Hierarchy) []ontology.Constraint {
	var out []ontology.Constraint
	for i := 0; i < len(hs); i++ {
		for j := i + 1; j < len(hs); j++ {
			// Case-normalised index of hierarchy j's terms.
			normJ := map[string][]string{}
			for _, n := range hs[j].Nodes() {
				k := strings.ToLower(n)
				normJ[k] = append(normJ[k], n)
			}
			seen := map[[2]string]bool{}
			emit := func(x, y string) {
				key := [2]string{x, y}
				if !seen[key] {
					seen[key] = true
					out = append(out, ontology.Equal(x, i+1, y, j+1))
				}
			}
			for _, x := range hs[i].Nodes() {
				if hs[j].HasNode(x) {
					emit(x, x)
				}
				// Synonyms in both directions: x's synonyms found in j, and
				// j-terms whose synonyms include x (the lexicon is
				// symmetric, so one lookup per x suffices once we match by
				// normalised form).
				for _, syn := range s.Lexicon.Synonyms(x) {
					for _, y := range normJ[syn] {
						emit(x, y)
					}
				}
			}
		}
	}
	return out
}
