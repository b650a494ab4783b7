package apps

import (
	"fmt"

	"optassign/internal/netgen"
)

// ByName instantiates a benchmark by its display name, accepting every
// member of the suite plus the two Figure-1 variants. It is the single
// registry the CLIs and the experiment harness share.
func ByName(name string, profile netgen.Profile) (App, error) {
	switch name {
	case "Aho-Corasick":
		return NewAhoCorasick(profile), nil
	case "IPFwd-L1":
		return NewIPFwd(IPFwdL1), nil
	case "IPFwd-Mem":
		return NewIPFwd(IPFwdMem), nil
	case "Packet-analyzer":
		return NewAnalyzer(), nil
	case "Stateful":
		return NewStateful(), nil
	case "IPFwd-intadd":
		return NewIPFwd(IPFwdIntAdd), nil
	case "IPFwd-intmul":
		return NewIPFwd(IPFwdIntMul), nil
	default:
		return nil, fmt.Errorf("apps: unknown benchmark %q", name)
	}
}

// Suite returns the paper's five-benchmark suite (§4.3) in the order the
// result figures list them: Aho-Corasick, IPFwd-L1, IPFwd-Mem,
// Packet-analyzer, Stateful.
func Suite(profile netgen.Profile) []App {
	return []App{
		NewAhoCorasick(profile),
		NewIPFwd(IPFwdL1),
		NewIPFwd(IPFwdMem),
		NewAnalyzer(),
		NewStateful(),
	}
}
