package optassign

// Reach check: every exported identifier under internal/ must be used by a
// program. staticcheck reports unused unexported code only, and an exported
// function that only its own tests call compiles, vets and passes forever.
// This test parses the non-test Go of the repository with go/parser and
// fails on each exported top-level identifier or exported method that no
// non-test code outside its own declaration names.
//
// The rule is syntactic, so it errs towards "reached": a package-level
// name counts when it appears as a bare identifier in its own package or
// as a selector on an import of that package elsewhere, and a method counts
// when any selector of its name appears anywhere. It can therefore miss
// dead code but flags live code only where a call is invisible to the
// syntax: a method called through an interface the code never names, or
// by reflection. Those go on reachAllowlist with the reason they live.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the exports that live without a syntactic
// reference, each with the reason. Keys are "pkg.Name" for package-level
// names and "pkg.Type.Method" for methods, pkg being the directory under
// internal/. An entry that names nothing, or names an export that a
// program now reaches, fails the check too, so the list cannot go stale.
var reachAllowlist = map[string]string{
	// The fleet soak harness: its own package's tests are its programs.
	"chaos.NewFleet":                 "soak harness; only the chaos package's tests run fleets",
	"chaos.Member.PartitionMeasure":  "soak harness disturbance, driven by the chaos scenarios",
	"chaos.Member.HealMeasure":       "soak harness disturbance, driven by the chaos scenarios",
	"chaos.Member.PartitionRegistry": "soak harness disturbance, driven by the chaos scenarios",
	"chaos.Member.HealRegistry":      "soak harness disturbance, driven by the chaos scenarios",
	"chaos.Fleet.RunCampaign":        "soak harness; runs the campaign each chaos scenario disturbs",
	"chaos.SerialBaseline":           "soak harness; the undisturbed journal each chaos scenario compares against",
	"chaos.Fleet.VerifyTelemetry":    "soak harness; the membership-gauge check after each chaos scenario",

	"faulty.NewRunner":                      "in-process fault injection for the resilience tests of core, campaign and calibrate",
	"raceflag.Enabled":                      "build-tag constant the allocation gates of several packages' tests skip on",
	"core.CachedRunner.MeasureBatchContext": "implements core.BatchMeasurer; the pool and batch paths call it through that interface",
	"table.Type.MarshalJSON":                "encoding/json calls it when a table schema is written",
	"table.Type.UnmarshalJSON":              "encoding/json calls it when a table schema is read",
	"evt.GPD.LogPDF":                        "the reference density LogLikelihood is pinned to bitwise by evt's tests",
	"netgen.ReadPcap":                       "reads back PcapWriter's captures (cmd/ntgen's output) in the round-trip test and FuzzReadPcap",
	"core.IterResult.CaptureProb":           "the §3.1 capture probability of a finished campaign; kept for the planned rank certificate",
	"apps.ahoProcess.MatchStats":            "the netdps engine integration test reads the Aho-Corasick P thread's match counters through it",
}

// reachDirs are the trees whose non-test Go counts as a program: the
// commands, the examples, the library itself and the benchmark module.
var reachDirs = []string{"cmd", "examples", "internal", "perfbench"}

func TestExportsReachAProgram(t *testing.T) {
	exports, err := scanReach(".", reachDirs)
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) == 0 {
		t.Fatal("no exports found under internal/; is the working directory the repo root?")
	}
	for _, msg := range reachFailures(exports, reachAllowlist) {
		t.Error(msg)
	}
}

// TestReachScanner runs the scanner on the small tree in testdata/reach,
// which the go tool does not build, and checks each rule it applies. The
// tree's bench/ is a second module, as perfbench/ is here.
func TestReachScanner(t *testing.T) {
	exports, err := scanReach("testdata/reach", []string{"examples", "internal", "bench"})
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	for _, e := range exports {
		reached[e.key] = e.reached
	}
	for key, want := range map[string]bool{
		"lib.Unused":          false, // named by nothing
		"lib.TestOnly":        false, // named only by a _test.go file
		"lib.SelfRecursive":   false, // named only inside its own body
		"lib.Methods":         false, // named only by its methods' receivers
		"lib.UsedByBench":     true,  // named from the second module
		"lib.UsedByExample":   true,  // named from an examples/ program
		"lib.UsedInPackage":   true,  // a bare identifier in its own package
		"lib.Kept":            true,
		"lib.Kept.Selected":   true, // reached only by a selector
		"lib.Kept.Unselected": false,
	} {
		if got, ok := reached[key]; !ok {
			t.Errorf("%s: not declared in testdata/reach", key)
		} else if got != want {
			t.Errorf("%s: reached = %v, want %v", key, got, want)
		}
	}

	allow := map[string]string{
		"lib.Unused":          "reason",
		"lib.TestOnly":        "reason",
		"lib.SelfRecursive":   "reason",
		"lib.Methods":         "reason",
		"lib.Kept.Unselected": "reason",
	}
	if msgs := reachFailures(exports, allow); len(msgs) != 0 {
		t.Fatalf("a complete allowlist still fails: %q", msgs)
	}
	allow["lib.Gone"] = "declared nowhere"
	allow["lib.UsedInPackage"] = "reached"
	allow["lib.Kept.Unselected"] = ""
	delete(allow, "lib.Unused")
	msgs := reachFailures(exports, allow)
	want := []string{"lib.Gone", "lib.UsedInPackage", "lib.Kept.Unselected", "lib.Unused"}
	if len(msgs) != len(want) {
		t.Fatalf("failures %q, want one each for %v", msgs, want)
	}
	for _, key := range want {
		hit := false
		for _, m := range msgs {
			hit = hit || strings.Contains(m, " "+key+" ")
		}
		if !hit {
			t.Errorf("no failure names %s in %q", key, msgs)
		}
	}
}

// export is one exported identifier declared under internal/.
type export struct {
	key     string // "pkg.Name" or "pkg.Type.Method"
	pos     token.Position
	reached bool
}

// reachFailures returns one message per unreached export that the allowlist
// does not name, and one per allowlist entry that is stale or has no reason.
func reachFailures(exports []export, allow map[string]string) []string {
	var msgs []string
	declared := map[string]bool{}
	for _, e := range exports {
		declared[e.key] = true
		_, listed := allow[e.key]
		switch {
		case !e.reached && !listed:
			msgs = append(msgs, fmt.Sprintf("%s: %s is reached by no program (delete it, or allowlist it with the reason it lives)", e.pos, e.key))
		case e.reached && listed:
			msgs = append(msgs, fmt.Sprintf("%s: %s is allowlisted but a program reaches it; drop the entry", e.pos, e.key))
		}
	}
	keys := make([]string, 0, len(allow))
	for key := range allow {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !declared[key] {
			msgs = append(msgs, fmt.Sprintf("allowlist entry %s names no exported identifier under internal/; drop it", key))
		} else if strings.TrimSpace(allow[key]) == "" {
			msgs = append(msgs, fmt.Sprintf("allowlist entry %s gives no reason", key))
		}
	}
	return msgs
}

// scanReach parses the non-test Go under root/dirs (skipping testdata) and
// returns every export declared under root/internal, sorted by position,
// with whether some program reaches it. Import paths resolve against the
// module path in root/go.mod.
func scanReach(root string, dirs []string) ([]export, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	type file struct {
		pkg string // directory under internal/, or "" outside it
		ast *ast.File
	}
	var files []file
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			pkg := ""
			if p, ok := strings.CutPrefix(filepath.ToSlash(rel), "internal/"); ok {
				pkg = p
			}
			files = append(files, file{pkg, f})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Declarations, each with the span that does not count as a use. The
	// names set keeps one declaration of a name (a build-tagged twin, say)
	// from counting as a use of another.
	type decl struct {
		export
		method string // the selector that reaches a method; "" otherwise
		span   ast.Node
	}
	var decls []*decl
	names := map[token.Pos]bool{}
	pkgNames := map[string]string{} // internal dir -> package name
	for _, f := range files {
		if f.pkg == "" {
			continue
		}
		pkgNames[f.pkg] = f.ast.Name.Name
		add := func(name *ast.Ident, key, method string, span ast.Node) {
			if name.IsExported() {
				names[name.Pos()] = true
				decls = append(decls, &decl{export{key: key, pos: fset.Position(name.Pos())}, method, span})
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, f.pkg+"."+d.Name.Name, "", d)
				} else {
					add(d.Name, f.pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name.Name, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, f.pkg+"."+s.Name.Name, "", s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, f.pkg+"."+n.Name, "", s)
						}
					}
				}
			}
		}
	}

	// Uses: package-qualified names, and method names by selector alone.
	uses := map[string][]token.Pos{}      // "pkg.Name" -> positions
	selectors := map[string][]token.Pos{} // "Name" -> positions
	for _, f := range files {
		imports := map[string]string{} // local name -> internal dir
		for _, imp := range f.ast.Imports {
			dir, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), module+"/internal/")
			if !ok {
				continue
			}
			local := pkgNames[dir]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = dir
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil {
					return true
				}
				// A receiver names its type as part of the method's
				// declaration, not as a use of the type.
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				selectors[n.Sel.Name] = append(selectors[n.Sel.Name], n.Sel.Pos())
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						key := dir + "." + n.Sel.Name
						uses[key] = append(uses[key], n.Sel.Pos())
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if f.pkg != "" && !names[n.Pos()] {
					key := f.pkg + "." + n.Name
					uses[key] = append(uses[key], n.Pos())
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	exports := make([]export, 0, len(decls))
	for _, d := range decls {
		positions := uses[d.key]
		if d.method != "" {
			positions = selectors[d.method]
		}
		for _, p := range positions {
			if p < d.span.Pos() || p >= d.span.End() {
				d.reached = true
				break
			}
		}
		exports = append(exports, d.export)
	}
	sort.Slice(exports, func(i, j int) bool {
		a, b := exports[i].pos, exports[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return exports, nil
}

// recvName is the type a method's receiver expression names: T for T, *T,
// T[P] and *T[P].
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		default:
			return x.(*ast.Ident).Name // the parser accepts no other receiver
		}
	}
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
