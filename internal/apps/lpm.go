package apps

import (
	"fmt"
	"math/rand"
)

// RouteTable is a longest-prefix-match IPv4 forwarding table implemented as
// a binary trie: routes hang off the bit-path of their prefix and a lookup
// walks the destination address from the most significant bit, remembering
// the deepest route passed. This is the functional heart of the IPFwd
// benchmark — the *size* of the table is what separates the paper's
// IPFwd-L1 (cache-resident) and IPFwd-Mem (DRAM-walking) variants, and the
// demand vectors in ipfwd.go model exactly that difference.
type RouteTable struct {
	root *trieNode
}

type trieNode struct {
	child   [2]*trieNode
	nextHop uint32 // 0 = no route terminates here
}

// NewRouteTable returns an empty table (no default route).
func NewRouteTable() *RouteTable { return &RouteTable{root: &trieNode{}} }

// Insert adds (or overwrites) the route addr/length → nextHop. Next hop 0
// is reserved for "no route". A length of 0 installs the default route.
func (t *RouteTable) Insert(addr uint32, length int, nextHop uint32) error {
	switch {
	case length < 0 || length > 32:
		return fmt.Errorf("apps: prefix length %d out of range", length)
	case nextHop == 0:
		return fmt.Errorf("apps: next hop 0 is reserved for no-route")
	}
	n := t.root
	for bit := 0; bit < length; bit++ {
		b := (addr >> (31 - bit)) & 1
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	n.nextHop = nextHop
	return nil
}

// Lookup returns the next hop of the longest matching prefix for addr,
// or 0 when no route matches.
func (t *RouteTable) Lookup(addr uint32) uint32 {
	best := uint32(0)
	n := t.root
	for bit := 0; n != nil; bit++ {
		if n.nextHop != 0 {
			best = n.nextHop
		}
		if bit == 32 {
			break
		}
		n = n.child[(addr>>(31-bit))&1]
	}
	return best
}

// PopulateRandom fills the table with n deterministic pseudo-random routes
// whose prefix-length mix resembles a backbone table (mostly /16–/24 with
// a tail of longer prefixes) plus a default route, so every lookup
// resolves. Used to build the IPFwd benchmark tables.
func (t *RouteTable) PopulateRandom(n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	if err := t.Insert(0, 0, 1); err != nil { // default route, hop 1
		return err
	}
	for i := 0; i < n; i++ {
		var length int
		switch r := rng.Float64(); {
		case r < 0.05:
			length = 8 + rng.Intn(8) // /8../15
		case r < 0.85:
			length = 16 + rng.Intn(9) // /16../24
		default:
			length = 25 + rng.Intn(8) // /25../32
		}
		addr := rng.Uint32()
		hop := uint32(2 + rng.Intn(1<<20))
		if err := t.Insert(addr, length, hop); err != nil {
			return err
		}
	}
	return nil
}
