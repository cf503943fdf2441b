package datacell

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// deadAllow lists the exported symbols under internal/ that no non-test
// file references but that stay on purpose, keyed as deadSymbols reports
// them. An entry whose symbol gains a referrer or is deleted fails
// TestNoDeadExportedSymbols, so the list cannot go stale.
var deadAllow = map[string]string{
	"basket.Basket.AddConstraint": "ROADMAP 17 and 1b: SQL check constraints and the separate replica's predicate lower to it",
	"lroad.NewSQLReference":       "ROADMAP 8: test reference for Linear Road through SQL, until queries.go goes",
	"lroad.SQLReference.Feed":     "ROADMAP 8: as NewSQLReference",
	"faultpoint.Inject":           "fault-injection hook: tests arm the sites that production code checks",
	"faultpoint.Armed":            "fault-injection hook, as Inject",
	"faultpoint.Hits":             "fault-injection hook, as Inject",
	"faultpoint.SetCrashFn":       "fault-injection hook, as Inject",
	"stream.Receptor.Received":    "receptor accounting counter, the twin of Invalid, that the receptor tests check",
	"stream.Emitter.Delivered":    "emitter delivery counter that the emitter tests wait on",
	"vector.FromStrs":             "Str constructor of the FromInts/FromFloats family; tests of other packages build Str columns with it",
}

// deadSymbols scans the Go tree under root and returns, sorted, every
// exported top-level func, method, type, var or const declared in a
// non-test file under root/internal whose name appears as an identifier in
// no non-test file under root other than inside its own declaration.
// Keys are "pkg.Name" or "pkg.Recv.Method", pkg being the directory below
// internal/. Every non-test file counts as a referrer, benchmark/ (its own
// module, which may import internal/) included; testdata/ and dot
// directories are skipped.
//
// The match is by name, not by type, so it is conservative: a dead symbol
// whose name is also used for something live (a method named like a field
// or like a method of another type) passes, and so does a type that only
// its own methods name. Methods of unexported types are not scanned: they
// are reached through interfaces (io.Reader's Read), which a name match
// cannot see. The root package's exported API is not scanned either; its
// callers are outside the repository.
func deadSymbols(root string) ([]string, error) {
	type decl struct {
		key        string
		name       string
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	refs := map[string][]token.Pos{} // every identifier's positions, by name
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				refs[id.Name] = append(refs[id.Name], id.Pos())
			}
			return true
		})
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel, "internal/") {
			return nil
		}
		pkg := strings.TrimPrefix(rel, "internal/")
		add := func(id *ast.Ident, key string, n ast.Node) {
			if id.IsExported() {
				decls = append(decls, decl{key, id.Name, n.Pos(), n.End()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					recv := recvName(d.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					key = pkg + "." + recv + "." + d.Name.Name
				}
				add(d.Name, key, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, pkg+"."+s.Name.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, pkg+"."+id.Name, s)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []string
	for _, d := range decls {
		if !slices.ContainsFunc(refs[d.name], func(p token.Pos) bool { return p < d.start || p >= d.end }) {
			dead = append(dead, d.key)
		}
	}
	slices.Sort(dead)
	return dead, nil
}

// recvName returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// deadProblems reports each dead symbol that allow does not list, and each
// allow entry that is no longer dead: referenced again, or gone.
func deadProblems(dead []string, allow map[string]string) []string {
	var out []string
	isDead := map[string]bool{}
	for _, k := range dead {
		isDead[k] = true
		if _, ok := allow[k]; !ok {
			out = append(out, k+": exported, but only tests reference it; delete it or allowlist it with a reason")
		}
	}
	for k, why := range allow {
		switch {
		case !isDead[k]:
			out = append(out, k+": stale allowlist entry (now referenced, or no longer declared)")
		case strings.TrimSpace(why) == "":
			out = append(out, k+": allowlist entry has no reason")
		}
	}
	slices.Sort(out)
	return out
}

func TestNoDeadExportedSymbols(t *testing.T) {
	dead, err := deadSymbols(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range deadProblems(dead, deadAllow) {
		t.Error(p)
	}
}

func TestDeadSymbolsFixture(t *testing.T) {
	dead, err := deadSymbols(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.Dead"}; strings.Join(dead, ",") != strings.Join(want, ",") {
		t.Fatalf("deadSymbols = %v, want %v", dead, want)
	}
	if p := deadProblems(dead, nil); len(p) != 1 {
		t.Errorf("unlisted dead symbol: problems %v, want one", p)
	}
	if p := deadProblems(dead, map[string]string{"lib.Dead": "kept"}); len(p) != 0 {
		t.Errorf("allowlisted dead symbol: problems %v, want none", p)
	}
	stale := map[string]string{"lib.Dead": "kept", "lib.Live": "referenced", "lib.Gone": "deleted"}
	if p := deadProblems(dead, stale); len(p) != 2 {
		t.Errorf("stale allowlist: problems %v, want two", p)
	}
}
