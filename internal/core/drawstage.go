package core

import (
	"math/rand"

	"optassign/internal/assign"
	"optassign/internal/search"
)

// This file is the draw stage: the half of a campaign or a sample that
// proposes assignments and renders their cache keys, beside the measure
// stage (PoolRunner.measure) that probes the cache, measures and commits
// them in draw order. The paper's sample is i.i.d. uniform (§3.1, §3.3.2
// Step 1), so no draw of a fixed-size sample depends on a measurement:
// the sample streams its draws a unit at a time, the units after the
// current one drawn while it is measured (collectSample). A campaign's
// strategy may read the outcomes, so its next round waits for the
// current round's commit and is drawn beside the refit (IteratePool).

// drawStage owns a campaign's strategy, draw RNG and History. Its rounds
// are drawn one at a time, either inline or on a goroutine of their own
// (ahead, stream), and whoever holds a round's channel leaves the stage alone
// until the round is received.
type drawStage struct {
	strategy search.Strategy
	rng      *rand.Rand
	hist     *search.History
	// record pushes every draw to hist, as the engine contract has it. A
	// sample leaves it unset: its Uniform strategy reads only the
	// History's topology and task count, and n entries nobody reads would
	// only grow the heap.
	record bool
	// keyer, when set, renders each round's cache keys ahead of the
	// probe, into the ring of buffers keys, reused in turn; stream sizes
	// the ring so that no buffer is rendered again while its keys are
	// still probed.
	keyer *CachedRunner
	keys  []classKeys
	slot  int
}

// drawnRound is one round of draws, pushed to the history (when the stage
// records) but not yet measured: the assignments and their Explore flags
// from history index base on, their cache keys when the stage renders
// them, and the strategy's error if drawing stopped short.
type drawnRound struct {
	base    int
	batch   []assign.Assignment
	explore []bool
	keys    classKeys
	err     error
}

// draw proposes the next add draws.
func (s *drawStage) draw(add int) drawnRound {
	r := drawnRound{base: s.hist.Len(), batch: make([]assign.Assignment, 0, add), explore: make([]bool, 0, add)}
	for i := 0; i < add; i++ {
		d, err := s.strategy.Next(s.rng, s.hist)
		if err != nil {
			r.err = err
			return r
		}
		if s.record {
			s.hist.Push(d)
		}
		r.batch = append(r.batch, d.Assignment)
		r.explore = append(r.explore, d.Explore)
	}
	if s.keyer != nil {
		k := &s.keys[s.slot]
		s.slot = (s.slot + 1) % len(s.keys)
		k.render(s.keyer, r.batch)
		r.keys = *k
	}
	return r
}

// ahead runs draw(add) on a goroutine of its own. The round must be
// received from the channel exactly once.
func (s *drawStage) ahead(add int) chan drawnRound {
	ch := make(chan drawnRound, 1)
	go func() { ch <- s.draw(add) }()
	return ch
}

// stream draws n draws a unit at a time on a goroutine of its own, which
// runs up to streamDepth units ahead of the consumer. The consumer must
// finish with each unit before it receives the next. The channel closes
// after the last unit, after a unit whose drawing failed, or once stop is
// closed; the consumer that stops early closes stop and then drains the
// channel, so the goroutine never outlives it. Once stop is closed the
// goroutine finishes at most the unit it is drawing.
func (s *drawStage) stream(n, unit int, stop <-chan struct{}) <-chan drawnRound {
	ch := make(chan drawnRound, streamDepth)
	if s.keyer != nil {
		// Unit u's keys are probed until the consumer receives unit u+1.
		// The goroutine renders unit u+streamDepth+2 only after sending
		// unit u+streamDepth+1, when at most streamDepth units wait in ch,
		// so the consumer has received unit u+1 by then: streamDepth+2
		// buffers (the units waiting, the one measured, the one drawn)
		// are never rendered over while in use.
		s.keys, s.slot = make([]classKeys, streamDepth+2), 0
	}
	go func() {
		defer close(ch)
		for done := 0; done < n; {
			select {
			case <-stop:
				return
			default:
			}
			r := s.draw(min(unit, n-done))
			done += len(r.batch)
			select {
			case ch <- r:
			case <-stop:
				return
			}
			if r.err != nil {
				return
			}
		}
	}()
	return ch
}

// streamDepth is the number of drawn units a stream holds ready. A
// sample's first chunks miss the cache and measure most of their
// classes, and their L2 probes may wait for the store's fsyncs, while
// its later ones are mostly L1 hits, so a draw stage that banks units
// during the first phase keeps the measurer fed through the second. The
// value was chosen, not tuned: no other depth was measured.
const streamDepth = 8

// classKeys holds the cache keys of a run of draws, rendered back to back
// into one buffer: key i is buf[offs[i]:offs[i+1]]. The zero value holds
// none, and the batch path then renders each key as it probes.
type classKeys struct {
	buf  []byte
	offs []int
}

// render replaces k's keys with r's keys of as, reusing k's buffers.
func (k *classKeys) render(r *CachedRunner, as []assign.Assignment) {
	k.buf, k.offs = k.buf[:0], append(k.offs[:0], 0)
	for _, a := range as {
		k.buf = r.appendKey(k.buf, a)
		k.offs = append(k.offs, len(k.buf))
	}
}

// at returns key i.
func (k classKeys) at(i int) []byte { return k.buf[k.offs[i]:k.offs[i+1]] }

// slice returns the keys of draws lo..hi-1, sharing k's buffer.
func (k classKeys) slice(lo, hi int) classKeys {
	if k.offs == nil {
		return k
	}
	return classKeys{buf: k.buf, offs: k.offs[lo : hi+1]}
}
