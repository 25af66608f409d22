package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/similarity"
)

// TestBuildSEOGolden pins the SEO that System.Build derives from the
// benchmark corpus (3000 papers, one document per paper, the name rule with
// a Damerau fallback, ε = 3) and bounds the allocations Build makes. The
// hashes are prefixes of sha256(SEO.String()); any change to SEA's
// clustering, naming or order lifting shows up here.
func TestBuildSEOGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 3000-paper corpora")
	}
	for _, c := range []struct {
		seed int64
		hash string
	}{
		{11, "7fa30f484de9503d"},
		{12, "d2e72d22bf552b62"},
	} {
		gen := datagen.DefaultConfig(3000)
		gen.Seed = c.seed
		corpus := datagen.Generate(gen)
		s := NewSystem()
		dblp, err := s.AddInstance("dblp")
		if err != nil {
			t.Fatal(err)
		}
		for i := range corpus.Papers {
			xml := corpus.DBLPString(corpus.Papers[i : i+1])
			if _, err := dblp.Col.PutXML(fmt.Sprintf("dblp-%05d", i), strings.NewReader(xml)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		if err := s.Build(similarity.NameRule{Fallback: similarity.Damerau{}}, 3); err != nil {
			t.Fatal(err)
		}
		took := time.Since(t0)
		runtime.ReadMemStats(&after)
		sum := sha256.Sum256([]byte(s.SEO.String()))
		got := hex.EncodeToString(sum[:])
		mallocs := after.Mallocs - before.Mallocs
		t.Logf("seed %d: Build %v, %d mallocs, %d SEO nodes, sha256 %s", c.seed, took, mallocs, s.SEO.NodeCount(), got)
		if !strings.HasPrefix(got, c.hash) {
			t.Errorf("seed %d: SEO hash %s, want prefix %s", c.seed, got, c.hash)
		}
		// The all-pairs name-rule scan made 21.5M mallocs per Build.
		if mallocs >= 2_000_000 {
			t.Errorf("seed %d: Build made %d mallocs, want < 2M", c.seed, mallocs)
		}
	}
}
