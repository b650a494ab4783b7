package apps

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRouteTableBasics(t *testing.T) {
	rt := NewRouteTable()
	if rt.Lookup(0x0a000001) != 0 {
		t.Error("empty table should miss")
	}
	// 10.0.0.0/8 → 100; 10.1.0.0/16 → 200; 10.1.2.0/24 → 300.
	mustInsert(t, rt, 0x0a000000, 8, 100)
	mustInsert(t, rt, 0x0a010000, 16, 200)
	mustInsert(t, rt, 0x0a010200, 24, 300)
	if n := routes(rt); n != 3 {
		t.Errorf("routes = %d", n)
	}
	cases := []struct {
		addr uint32
		want uint32
	}{
		{0x0a000001, 100}, // only /8 matches
		{0x0a010001, 200}, // /16 beats /8
		{0x0a010201, 300}, // /24 beats /16
		{0x0b000001, 0},   // nothing matches
	}
	for _, c := range cases {
		if got := rt.Lookup(c.addr); got != c.want {
			t.Errorf("Lookup(%08x) = %d, want %d", c.addr, got, c.want)
		}
	}
}

// routes counts the distinct prefixes in rt: the trie nodes a route
// terminates at.
func routes(rt *RouteTable) int {
	n := 0
	var walk func(*trieNode)
	walk = func(nd *trieNode) {
		if nd == nil {
			return
		}
		if nd.nextHop != 0 {
			n++
		}
		walk(nd.child[0])
		walk(nd.child[1])
	}
	walk(rt.root)
	return n
}

func mustInsert(t *testing.T, rt *RouteTable, addr uint32, length int, hop uint32) {
	t.Helper()
	if err := rt.Insert(addr, length, hop); err != nil {
		t.Fatal(err)
	}
}

func TestRouteTableDefaultAndHostRoutes(t *testing.T) {
	rt := NewRouteTable()
	mustInsert(t, rt, 0, 0, 7) // default route
	if got := rt.Lookup(0xffffffff); got != 7 {
		t.Errorf("default route = %d", got)
	}
	mustInsert(t, rt, 0xc0a80101, 32, 9) // host route
	if got := rt.Lookup(0xc0a80101); got != 9 {
		t.Errorf("host route = %d", got)
	}
	if got := rt.Lookup(0xc0a80102); got != 7 {
		t.Errorf("neighbour of host route = %d", got)
	}
}

func TestRouteTableOverwriteAndErrors(t *testing.T) {
	rt := NewRouteTable()
	mustInsert(t, rt, 0x0a000000, 8, 1)
	mustInsert(t, rt, 0x0a000000, 8, 2) // overwrite, not a new route
	if n := routes(rt); n != 1 {
		t.Errorf("routes = %d after overwrite", n)
	}
	if got := rt.Lookup(0x0a000001); got != 2 {
		t.Errorf("overwritten hop = %d", got)
	}
	if err := rt.Insert(0, -1, 1); err == nil {
		t.Error("negative length accepted")
	}
	if err := rt.Insert(0, 33, 1); err == nil {
		t.Error("length 33 accepted")
	}
	if err := rt.Insert(0, 8, 0); err == nil {
		t.Error("reserved next hop accepted")
	}
}

func TestRouteTableInsertionOrderIrrelevantProperty(t *testing.T) {
	// Longest-prefix-match must not depend on insertion order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type route struct {
			addr   uint32
			length int
			hop    uint32
		}
		n := 3 + rng.Intn(20)
		routes := make([]route, n)
		for i := range routes {
			routes[i] = route{addr: rng.Uint32(), length: rng.Intn(33), hop: uint32(1 + rng.Intn(1000))}
		}
		forward := NewRouteTable()
		backward := NewRouteTable()
		for _, r := range routes {
			if forward.Insert(r.addr, r.length, r.hop) != nil {
				return false
			}
		}
		for i := len(routes) - 1; i >= 0; i-- {
			r := routes[i]
			if backward.Insert(r.addr, r.length, r.hop) != nil {
				return false
			}
		}
		// Duplicate prefixes overwrite, so order matters only for them;
		// dedupe by keeping the last writer per (addr-masked, length).
		// To keep the property clean, compare only when all prefixes are
		// distinct.
		seen := map[[2]uint32]bool{}
		for _, r := range routes {
			key := [2]uint32{r.addr & prefixMaskFor(r.length), uint32(r.length)}
			if seen[key] {
				return true // skip draws with duplicate prefixes
			}
			seen[key] = true
		}
		for i := 0; i < 200; i++ {
			addr := rng.Uint32()
			if forward.Lookup(addr) != backward.Lookup(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func prefixMaskFor(length int) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << (32 - length)
}

func TestRouteTableAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type route struct {
		addr   uint32
		length int
		hop    uint32
	}
	var routes []route
	rt := NewRouteTable()
	for i := 0; i < 200; i++ {
		r := route{addr: rng.Uint32(), length: rng.Intn(33), hop: uint32(1 + i)}
		r.addr &= prefixMaskFor(r.length)
		routes = append(routes, r)
		mustInsert(t, rt, r.addr, r.length, r.hop)
	}
	brute := func(addr uint32) uint32 {
		best, bestLen := uint32(0), -1
		for _, r := range routes {
			// >= so a duplicate prefix's later insertion wins, matching
			// the table's overwrite semantics.
			if addr&prefixMaskFor(r.length) == r.addr && r.length >= bestLen {
				best, bestLen = r.hop, r.length
			}
		}
		return best
	}
	for i := 0; i < 3000; i++ {
		addr := rng.Uint32()
		if got, want := rt.Lookup(addr), brute(addr); got != want {
			t.Fatalf("Lookup(%08x) = %d, brute force says %d", addr, got, want)
		}
	}
}

func TestPopulateRandomResolvesEverything(t *testing.T) {
	rt := NewRouteTable()
	if err := rt.PopulateRandom(5000, 3); err != nil {
		t.Fatal(err)
	}
	if n := routes(rt); n < 4000 { // some random prefixes collide
		t.Errorf("routes = %d", n)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		if rt.Lookup(rng.Uint32()) == 0 {
			t.Fatal("default route missing: lookup missed")
		}
	}
}

func TestIPFwdUsesLongestPrefixTable(t *testing.T) {
	app := NewIPFwd(IPFwdL1)
	if n := routes(app.Table()); n < ipfwdL1Routes/2 {
		t.Errorf("small table has %d routes", n)
	}
	appMem := NewIPFwd(IPFwdMem)
	if routes(appMem.Table()) <= routes(app.Table()) {
		t.Error("Mem variant should have a much larger table")
	}
	// Every destination forwards somewhere (default route).
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if app.NextHop(rng.Uint32()) == 0 {
			t.Fatal("NextHop missed despite default route")
		}
	}
	// Shared table across instances of a variant.
	if NewIPFwd(IPFwdL1).Table() != app.Table() {
		t.Error("L1 tables not shared")
	}
}

func BenchmarkRouteTableLookup(b *testing.B) {
	rt := NewRouteTable()
	if err := rt.PopulateRandom(ipfwdMemRoutes, 1); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += rt.Lookup(addrs[i&4095])
	}
	_ = sink
}
