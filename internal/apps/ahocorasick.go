package apps

// Automaton is an Aho-Corasick string-matching machine (Aho & Corasick,
// 1975): a goto function over a keyword trie, failure links computed by
// breadth-first search, and an output function listing the keywords that
// end at each state. It locates all occurrences of every keyword in a
// single pass over the text — the property that makes it the matcher of
// choice in intrusion-detection systems like Snort, and the algorithm of
// the paper's Aho-Corasick benchmark.
type Automaton struct {
	next     [][256]int32 // goto function, -1-free: dense transition table
	fail     []int32      // failure links
	out      [][]int32    // keyword indices ending at each state
	keywords []string
}

// NewAutomaton builds the pattern-matching machine for the keyword set.
// Empty keywords are ignored; duplicate keywords are collapsed to the first
// occurrence's index.
func NewAutomaton(keywords []string) *Automaton {
	a := &Automaton{keywords: keywords}
	a.next = append(a.next, [256]int32{})
	a.fail = append(a.fail, 0)
	a.out = append(a.out, nil)

	// Phase 1: trie construction (goto function).
	for ki, kw := range keywords {
		if kw == "" {
			continue
		}
		state := int32(0)
		for i := 0; i < len(kw); i++ {
			c := kw[i]
			if a.next[state][c] == 0 {
				a.next = append(a.next, [256]int32{})
				a.fail = append(a.fail, 0)
				a.out = append(a.out, nil)
				a.next[state][c] = int32(len(a.next) - 1)
			}
			state = a.next[state][c]
		}
		a.out[state] = append(a.out[state], int32(ki))
	}

	// Phase 2: failure links by BFS, and completion of the goto function
	// into a full transition table (next-move machine).
	queue := make([]int32, 0, len(a.next))
	for c := 0; c < 256; c++ {
		if s := a.next[0][c]; s != 0 {
			a.fail[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for c := 0; c < 256; c++ {
			s := a.next[r][c]
			if s == 0 {
				// Complete transition: inherit from the failure state.
				a.next[r][c] = a.next[a.fail[r]][c]
				continue
			}
			queue = append(queue, s)
			f := a.next[a.fail[r]][c]
			a.fail[s] = f
			a.out[s] = append(a.out[s], a.out[f]...)
		}
	}
	return a
}

// Match is one keyword occurrence: keyword index and the position just past
// its last byte.
type Match struct {
	Keyword int
	End     int
}

// Search scans text once and calls visit for every keyword occurrence (if
// visit is non-nil). It returns the total number of occurrences.
func (a *Automaton) Search(text []byte, visit func(Match)) int {
	state := int32(0)
	count := 0
	for i := 0; i < len(text); i++ {
		state = a.next[state][text[i]]
		if outs := a.out[state]; len(outs) > 0 {
			count += len(outs)
			if visit != nil {
				for _, k := range outs {
					visit(Match{Keyword: int(k), End: i + 1})
				}
			}
		}
	}
	return count
}
