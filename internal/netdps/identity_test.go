package netdps

import (
	"strings"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/netgen"
	"optassign/internal/proc"
)

// TestIdentityGolden pins the exact identity string of the default
// testbed. Identity() is the namespace of the persistent measurement
// store (core.CachedRunner keys and cas segments both embed it), so any
// change to the format silently orphans every disk-cached measurement —
// or, far worse, aliases measurements of two different testbeds. Change
// the expected literal here ONLY as a deliberate, documented format bump
// that cannot collide with the old namespace. The model suffix is one:
// stores written under the ½-damped solve, whose identities end with the
// traffic profile, miss under the named model instead of serving its
// values.
func TestIdentityGolden(t *testing.T) {
	tb := newTB(t, apps.NewIPFwd(apps.IPFwdL1), 8)
	const want = "netdps|IPFwd-L1|i8|s1|n0.004|pf4096,1.2,64-800,0.8,0.1|analytic-anderson1"
	if got := tb.Identity(); got != want {
		t.Fatalf("Identity() = %q, golden %q\n"+
			"(changing this string invalidates every persisted measurement cache)", got, want)
	}
}

// TestIdentityDivergence: every knob that changes measured values must
// change the identity, so no two differently-configured testbeds can
// share cache entries. The model is not a knob but a build's constant:
// every identity ends with it, so two builds whose solves differ never
// share a namespace.
func TestIdentityDivergence(t *testing.T) {
	base := newTB(t, apps.NewIPFwd(apps.IPFwdL1), 8)
	hot := netgen.DefaultProfile()
	hot.TCPFraction = 0.5
	variants := map[string]*Testbed{
		"app":       newTB(t, apps.NewIPFwd(apps.IPFwdMem), 8),
		"instances": newTB(t, apps.NewIPFwd(apps.IPFwdL1), 7),
		"seed":      newTB(t, apps.NewIPFwd(apps.IPFwdL1), 8, WithSeed(2)),
		"noise":     newTB(t, apps.NewIPFwd(apps.IPFwdL1), 8, noise(0.01)),
		"profile":   newTB(t, apps.NewIPFwd(apps.IPFwdL1), 8, WithProfile(hot)),
	}
	seen := map[string]string{base.Identity(): "base"}
	for name, tb := range variants {
		id := tb.Identity()
		if prev, dup := seen[id]; dup {
			t.Errorf("variant %q shares identity %q with %q", name, id, prev)
		}
		seen[id] = name
	}
	for id, name := range seen {
		if !strings.HasSuffix(id, "|"+proc.Model) {
			t.Errorf("%s identity %q does not end with the model %q", name, id, proc.Model)
		}
	}
}
