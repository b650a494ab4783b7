package apps

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// findAll returns all matches in text, ordered by end position then
// keyword index.
func findAll(a *Automaton, text []byte) []Match {
	var ms []Match
	a.Search(text, func(m Match) { ms = append(ms, m) })
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].Keyword < ms[j].Keyword
	})
	return ms
}

// naiveCount counts keyword occurrences by brute force.
func naiveCount(text string, keywords []string) int {
	n := 0
	for _, kw := range keywords {
		if kw == "" {
			continue
		}
		for i := 0; i+len(kw) <= len(text); i++ {
			if text[i:i+len(kw)] == kw {
				n++
			}
		}
	}
	return n
}

func TestAutomatonClassicExample(t *testing.T) {
	// The worked example from the Aho-Corasick paper: in "ushers", "she"
	// and "he" both end at position 4, "hers" at position 6.
	a := NewAutomaton([]string{"he", "she", "his", "hers"})
	ms := findAll(a, []byte("ushers"))
	want := []Match{{Keyword: 0, End: 4}, {Keyword: 1, End: 4}, {Keyword: 3, End: 6}}
	if len(ms) != len(want) {
		t.Fatalf("matches = %+v, want %+v", ms, want)
	}
	for i := range ms {
		if ms[i] != want[i] {
			t.Errorf("match %d = %+v, want %+v", i, ms[i], want[i])
		}
	}
}

func TestAutomatonOverlappingAndNested(t *testing.T) {
	a := NewAutomaton([]string{"aa", "aaa"})
	// "aaaa": "aa" at ends 2,3,4 and "aaa" at ends 3,4 -> 5 matches.
	if got := a.Search([]byte("aaaa"), nil); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
}

func TestAutomatonSubstringKeyword(t *testing.T) {
	// A keyword inside another must still be reported (output links).
	a := NewAutomaton([]string{"abcde", "bcd"})
	ms := findAll(a, []byte("xabcdex"))
	if len(ms) != 2 {
		t.Fatalf("matches = %+v", ms)
	}
	if ms[0].Keyword != 1 || ms[0].End != 5 || ms[1].Keyword != 0 || ms[1].End != 6 {
		t.Errorf("matches = %+v", ms)
	}
}

func TestAutomatonNoMatches(t *testing.T) {
	a := NewAutomaton([]string{"needle"})
	if got := a.Search([]byte("plain haystack text"), nil); got != 0 {
		t.Errorf("count = %d", got)
	}
	if got := a.Search(nil, nil); got != 0 {
		t.Errorf("empty text count = %d", got)
	}
}

func TestAutomatonEmptyKeywordIgnored(t *testing.T) {
	a := NewAutomaton([]string{"", "ab"})
	if got := a.Search([]byte("abab"), nil); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
}

func TestAutomatonStatesAndKeywords(t *testing.T) {
	kws := []string{"he", "she"}
	a := NewAutomaton(kws)
	// Trie: root + h,e + s,sh,she: but "he" shares nothing with "she"'s
	// path start; states = 1 + 2 + 3 = 6.
	if len(a.next) != 6 {
		t.Errorf("states = %d, want 6", len(a.next))
	}
	if len(a.keywords) != 2 {
		t.Error("Keywords lost")
	}
}

func TestAutomatonMatchesNaiveSearchProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := "abc" // small alphabet provokes overlaps
		nk := 1 + rng.Intn(5)
		kws := make([]string, nk)
		for i := range kws {
			l := 1 + rng.Intn(4)
			var b strings.Builder
			for j := 0; j < l; j++ {
				b.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			kws[i] = b.String()
		}
		var text strings.Builder
		for j := 0; j < 200; j++ {
			text.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		a := NewAutomaton(kws)
		// Duplicate keywords double-report in the naive count; dedup first.
		seen := map[string]bool{}
		var uniq []string
		for _, kw := range kws {
			if !seen[kw] {
				seen[kw] = true
				uniq = append(uniq, kw)
			}
		}
		aUniq := NewAutomaton(uniq)
		_ = a
		return aUniq.Search([]byte(text.String()), nil) == naiveCount(text.String(), uniq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAutomatonVisitPositionsAreCorrect(t *testing.T) {
	a := NewAutomaton(DoSKeywordsForTest())
	text := []byte("xxsynfloodyy and then a smurf attack")
	a.Search(text, func(m Match) {
		kw := a.keywords[m.Keyword]
		start := m.End - len(kw)
		if start < 0 || string(text[start:m.End]) != kw {
			t.Errorf("reported match %q at end %d does not align", kw, m.End)
		}
	})
	if got := a.Search(text, nil); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
}

// DoSKeywordsForTest mirrors the generator's keyword set without importing
// netgen in this test file's hot loop.
func DoSKeywordsForTest() []string {
	return []string{"synflood", "smurf", "teardrop", "pingofdeath"}
}

func BenchmarkAutomatonSearch(b *testing.B) {
	a := NewAutomaton(DoSKeywordsForTest())
	rng := rand.New(rand.NewSource(1))
	text := make([]byte, 1500)
	for i := range text {
		text[i] = byte('a' + rng.Intn(26))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Search(text, nil)
	}
	b.SetBytes(int64(len(text)))
}
