// Package search makes the campaign's sampling policy pluggable. The
// paper's method draws assignments uniformly at random (§3.3.2 Step 1) and
// feeds every measurement to the EVT estimator; the estimator, however,
// only needs an i.i.d.-ish tail sample — which leaves the *search* policy
// free to be smarter about where the measurement budget goes. A Strategy
// produces the campaign's draw sequence one assignment at a time, and
// declares — per strategy via TailSafe, per draw via Draw.Explore —
// whether its draws may feed the §3.3 tail fit.
//
// The engine contract (implemented by core.IteratePool) is:
//
//  1. Next for draw i is called when exactly i draws have been pushed to
//     the History (h.Len() == i), with the same *rand.Rand for every draw
//     of the campaign. A Strategy must be deterministic given the RNG
//     state and the History: replaying the same seed and outcome sequence
//     reproduces the identical draw sequence. That is what makes
//     journaled campaigns resumable under any strategy.
//  2. Outcomes become visible to Next only at batch boundaries (the
//     History's committed horizon): the engine measures Ninit draws, then
//     Ndelta per round, and commits each batch as a unit. A strategy
//     therefore never observes a partially measured batch — whether the
//     batch ran serially, on a worker pool, or was split by a crash and a
//     resume.
//  3. Draws marked Explore are excluded from the EVT fit; a strategy with
//     TailSafe() == false runs without the EVT stopping rule entirely
//     (the campaign is budget-bound).
//
// Derived RNG streams anywhere in the project use RepSeed, the single
// documented seed derivation; the campaign's own draw stream deliberately
// uses the raw seed because the write-ahead journal format pins it.
package search

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"optassign/internal/assign"
)

// Draw is one proposed measurement.
type Draw struct {
	// Assignment is the task placement to measure next. It is always a
	// valid member of the feasible set (injective task→context map).
	Assignment assign.Assignment
	// Explore marks a draw whose selection depended on earlier outcomes
	// (hill-climbing, annealing moves, ...). Explore draws still spend
	// budget and can win the campaign, but they are excluded from the EVT
	// tail fit: adaptive draws are not an i.i.d. sample and would bias the
	// estimated optimum.
	Explore bool
}

// Strategy generates the campaign's assignment draws.
//
// Implementations are not safe for concurrent use; the engine serializes
// Next calls (measurements fan out, draws do not).
type Strategy interface {
	// Name identifies the strategy in reports, metrics and journal
	// headers.
	Name() string
	// TailSafe reports whether the strategy's non-Explore draws form an
	// i.i.d. uniform sample fit for the EVT estimator. When false the
	// engine skips estimation and runs the campaign to its sample budget.
	TailSafe() bool
	// Next proposes the next draw. See the package comment for the engine
	// contract.
	Next(rng *rand.Rand, h *History) (Draw, error)
}

// Params are strategy tuning knobs, parsed from the CLI's
// "key=value,key=value" syntax. Values are finite float64s; each strategy
// rejects keys it does not define.
type Params map[string]float64

// ParseParams parses a "key=value,key=value" parameter string. Empty
// input yields empty Params. Keys must be non-empty and unique; values
// must parse as finite floats (NaN and ±Inf are configuration errors, not
// tuning choices).
func ParseParams(s string) (Params, error) {
	p := Params{}
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("search: empty parameter in %q", s)
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("search: parameter %q is not key=value", part)
		}
		k = strings.TrimSpace(k)
		if k == "" {
			return nil, fmt.Errorf("search: empty parameter key in %q", part)
		}
		if _, dup := p[k]; dup {
			return nil, fmt.Errorf("search: duplicate parameter %q", k)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return nil, fmt.Errorf("search: parameter %q: %v", k, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("search: parameter %q must be finite, got %v", k, f)
		}
		p[k] = f
	}
	return p, nil
}

// Spec renders a strategy name plus its parameters canonically —
// "greedy(explore=0.1,init=200)" — with keys sorted so equal
// configurations always serialize identically. This is the string journal
// headers record; a plain uniform campaign's spec is "" so that journals
// written before strategies existed stay byte-identical and resumable.
func Spec(name string, p Params) string {
	if len(p) == 0 {
		if name == "" || name == "uniform" {
			return ""
		}
		return name
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('(')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(p[k], 'g', -1, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Names lists the built-in strategies in presentation order.
var Names = []string{"uniform", "stratified", "greedy", "anneal"}

// New constructs a built-in strategy by name. params must contain only
// keys the strategy defines; m (nil allowed) receives the strategy-side
// counters (currently the annealer's accepted moves).
func New(name string, params Params, m *Metrics) (Strategy, error) {
	switch name {
	case "", "uniform":
		if len(params) > 0 {
			return nil, fmt.Errorf("search: uniform takes no parameters, got %s", Spec(name, params))
		}
		return Uniform{}, nil
	case "stratified":
		return newStratified(params)
	case "greedy":
		return newGreedy(params)
	case "anneal":
		return newAnneal(params, m)
	default:
		return nil, fmt.Errorf("search: unknown strategy %q (have %s)", name, strings.Join(Names, ", "))
	}
}

// paramInt reads an integer-valued parameter with a default, rejecting
// non-integral or out-of-range values.
func paramInt(p Params, key string, def, min int) (int, error) {
	v, ok := p[key]
	if !ok {
		return def, nil
	}
	n := int(v)
	if float64(n) != v {
		return 0, fmt.Errorf("search: parameter %s must be an integer, got %v", key, v)
	}
	if n < min {
		return 0, fmt.Errorf("search: parameter %s must be >= %d, got %d", key, min, n)
	}
	return n, nil
}

// rejectUnknown errors on any key outside known — an unknown knob is a
// typo, and a typo silently ignored is a campaign run with the wrong
// configuration.
func rejectUnknown(p Params, strategy string, known ...string) error {
	for k := range p {
		found := false
		for _, ok := range known {
			if k == ok {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("search: %s does not define parameter %q (known: %s)", strategy, k, strings.Join(known, ", "))
		}
	}
	return nil
}

// RepSeed derives the seed of stream rep from a base seed with a
// splitmix64 finalizer. This is the project's single documented seed
// derivation — calibrate's per-replication campaign seeds delegate here,
// and any future derived stream must too. Derived streams are
// deterministic, order-independent (stream 7 gets the same seed whether
// it is derived first or last) and well de-correlated, where a plain
// base+rep would hand adjacent streams nearly identical rand.Source
// states.
//
// The one deliberate exception is the campaign draw stream itself:
// core.iterate seeds its RNG with the raw campaign seed because the
// write-ahead journal header records that seed and resumable journals pin
// the historical stream.
func RepSeed(base int64, rep int) int64 {
	x := uint64(base) + (uint64(rep)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
