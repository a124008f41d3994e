package domino

// Contracts on the tree itself, held by `go test .`: the dependency
// discipline and the documentation gates ARCHITECTURE.md states. Each is
// a walk of the checkout, so each failure names a file and a line.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// walkGoFiles parses every Go file of the module the contracts cover —
// the root package, internal/... and cmd/... (bench/ is its own module,
// examples/ are programs to read) — and hands each to visit in path
// order, so one directory's files arrive together.
func walkGoFiles(t *testing.T, fset *token.FileSet, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			top, _, _ := strings.Cut(filepath.ToSlash(path), "/")
			if (top != "." && top != "internal" && top != "cmd") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInternalNeverImportsFacade pins ARCHITECTURE.md's dependency
// discipline: the root package re-exports internal/*, so an internal
// package (its tests included) that imports it back depends on everything.
func TestInternalNeverImportsFacade(t *testing.T) {
	fset := token.NewFileSet()
	walkGoFiles(t, fset, func(path string, f *ast.File) {
		for _, imp := range f.Imports {
			if strings.HasPrefix(path, "internal/") && imp.Path.Value == `"github.com/domino5g/domino"` {
				t.Errorf("%s: imports the root façade", fset.Position(imp.Pos()))
			}
		}
	})
}

// TestFuzzTargetsAreSmoked: `go test` only replays a fuzz target's
// seeds, so every one outside bench/ must have its line in the Makefile's
// fuzz-smoke recipe, naming its own package, or CI never fuzzes it.
func TestFuzzTargetsAreSmoked(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, _ := strings.Cut(string(mk), "\nfuzz-smoke:\n")
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	smoked := map[string]bool{}
	for _, m := range regexp.MustCompile(`-fuzz '\^(\w+)\$\$' .*\./(\S+)`).FindAllStringSubmatch(recipe, -1) {
		smoked[m[2]+"."+m[1]] = true
	}
	if len(smoked) == 0 {
		t.Fatal("no fuzz-smoke recipe lines found in the Makefile")
	}
	fset := token.NewFileSet()
	walkGoFiles(t, fset, func(path string, f *ast.File) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") {
				continue
			}
			if dir := filepath.Dir(path); !smoked[dir+"."+fn.Name.Name] {
				t.Errorf("%s: make fuzz-smoke does not run %s in ./%s", fset.Position(fn.Pos()), fn.Name.Name, dir)
			}
		}
	})
}

// TestTreeIsDocumented: every package (test files aside) carries a
// package comment, and every exported top-level symbol of the root
// façade — the surface godoc shows a user — carries a doc comment.
func TestTreeIsDocumented(t *testing.T) {
	fset := token.NewFileSet()
	type pkg struct {
		clause     token.Pos // of the directory's first file
		documented bool
	}
	pkgs := map[string]*pkg{}
	walkGoFiles(t, fset, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		dir := filepath.Dir(path)
		if pkgs[dir] == nil {
			pkgs[dir] = &pkg{clause: f.Package}
		}
		if f.Doc != nil {
			pkgs[dir].documented = true
		}
		if dir == "." {
			for _, decl := range f.Decls {
				undocumented(t, fset, decl)
			}
		}
	})
	for dir, p := range pkgs {
		if !p.documented {
			t.Errorf("%s: package in %s has no package comment", fset.Position(p.clause), dir)
		}
	}
}

// undocumented reports the exported names a top-level declaration
// exposes without a doc comment. A group doc on a parenthesized
// const/var/type block covers its specs; a doc on the individual spec
// also counts.
func undocumented(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	bad := func(pos token.Pos, kind, name string) {
		t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), kind, name)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil && (d.Recv == nil || exportedRecv(d.Recv)) {
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			bad(d.Pos(), kind, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					bad(s.Pos(), "type", s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						bad(n.Pos(), "value", n.Name)
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a method's receiver type is exported —
// methods on unexported types are not part of the documented surface.
func exportedRecv(recv *ast.FieldList) bool { return ast.IsExported(recvName(recv)) }

// recvName is the name of a method's receiver type, "" if it has none.
func recvName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestInternalExportsHaveCallers: an exported function or method under
// internal/ is API for the rest of the tree, so code that is not a test
// must use it. Uses are looked for in the module's non-test files and in
// every file under bench/ (its own module, which imports internal/
// packages). A package-level function is used where another package
// names it through its import (`pkg.Name`), or where a non-test file of
// its own directory names it bare. A method's name is matched, not
// resolved: a method called through an interface counts wherever the
// interface's method is called, and a common name passes on any use of
// it. The check is there so that exports only tests call cannot grow
// back; allowed lists the ones that stay without such a caller.
func TestInternalExportsHaveCallers(t *testing.T) {
	allowed := map[string]string{
		// Methods the standard library calls through an interface.
		"String":        "fmt.Stringer",
		"Error":         "error",
		"MarshalJSON":   "json.Marshaler",
		"UnmarshalJSON": "json.Unmarshaler",
		"ServeHTTP":     "http.Handler",
		// Test oracles: the plain definitions the optimized code is held to.
		"internal/rcastore.RecordLess": "the order Query's records are tested against",
		"internal/rcastore.MatchLess":  "the order Similar's matches are tested against",
		// A package whose users are tests.
		"internal/faultinject": "the fault-injecting transport internal/node's chaos test runs an ingest client over, and a fault-injecting FS",
	}
	const module = "github.com/domino5g/domino/"
	type export struct {
		pos       token.Pos
		dir, name string
		method    bool
	}
	var exports []export
	used := map[string]bool{}     // every name used, for methods
	usedFunc := map[string]bool{} // "dir.Name" of each package-level function use
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench/out") {
				return filepath.SkipDir
			}
			return nil
		}
		inBench := strings.HasPrefix(path, "bench/")
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") && !inBench {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		// A declaration's own name is not a use, nor is a function's call
		// to itself.
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				declared[fn.Name] = true
				selfCalls(fn, declared)
				if strings.HasPrefix(path, "internal/") && fn.Name.IsExported() {
					exports = append(exports, export{fn.Pos(), dir, fn.Name.Name, fn.Recv != nil})
				}
			}
		}
		imported := map[string]string{} // local package name → directory in the module
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if rel, ok := strings.CutPrefix(ipath, module); ok {
				name := pathpkg.Base(rel)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imported[name] = rel
			}
		}
		sel := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
					usedFunc[imported[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
					if !sel[n] && !inBench {
						usedFunc[dir+"."+n.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exports {
		isUsed := usedFunc[e.dir+"."+e.name]
		if e.method {
			isUsed = used[e.name]
		}
		if isUsed || allowed[e.name] != "" || allowed[e.dir] != "" || allowed[e.dir+"."+e.name] != "" {
			continue
		}
		t.Errorf("%s: exported %s has no caller outside tests", fset.Position(e.pos), e.name)
	}
}

// selfCalls marks the identifiers with which fn names itself in its
// own body: a plain function by its bare name, a method through its
// receiver.
func selfCalls(fn *ast.FuncDecl, mark map[*ast.Ident]bool) {
	recv := ""
	if fn.Recv != nil && len(fn.Recv.List[0].Names) > 0 {
		recv = fn.Recv.List[0].Names[0].Name
	}
	sel := map[*ast.Ident]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok && recv != "" && x.Name == recv && n.Sel.Name == fn.Name.Name {
				mark[n.Sel] = true
			}
		case *ast.Ident:
			if recv == "" && !sel[n] && n.Name == fn.Name.Name {
				mark[n] = true
			}
		}
		return true
	})
}

// TestGoroutinesNeverEndTheTest: t.Fatal, FailNow and SkipNow end only
// the goroutine that calls them, so a test goroutine that calls a helper
// of its own package that ends the test leaves the test waiting on a
// result that never comes: a failed request hangs go test to its timeout
// instead of failing it. go vet's testinggoroutine check sees only a
// direct call; this sees a go statement whose call, or whose function
// literal, calls such a helper by name, and names both positions. A
// goroutine reports through t.Error or the channel it sends on.
func TestGoroutinesNeverEndTheTest(t *testing.T) {
	type site struct {
		pos  token.Pos
		pkg  string
		name string
	}
	enders := map[string]token.Pos{} // "dir|package.func" → its first call that ends the test
	var sites []site
	fset := token.NewFileSet()
	walkGoFiles(t, fset, func(path string, f *ast.File) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		pkg := filepath.Dir(path) + "|" + f.Name.Name + "."
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						switch sel.Sel.Name {
						case "Fatal", "Fatalf", "FailNow", "SkipNow":
							if _, seen := enders[pkg+fn.Name.Name]; !seen {
								enders[pkg+fn.Name.Name] = call.Pos()
							}
						}
					}
				}
				return true
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			ast.Inspect(g.Call, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						sites = append(sites, site{call.Pos(), pkg, id.Name})
					}
				}
				return true
			})
			return true
		})
	})
	for _, s := range sites {
		if end, ok := enders[s.pkg+s.name]; ok {
			t.Errorf("%s: a goroutine calls %s, which ends the test at %s; report through t.Error or a channel",
				fset.Position(s.pos), s.name, fset.Position(end))
		}
	}
}

// TestDocLinksResolve: the documentation set cannot drift from the tree
// it describes. For every [text](target) whose target is not a URL or a
// pure #fragment, the file or directory must exist.
func TestDocLinksResolve(t *testing.T) {
	link := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	for _, md := range []string{"README.md", "ARCHITECTURE.md", "ROADMAP.md"} {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range link.FindAllStringSubmatch(line, -1) {
				target, _, _ := strings.Cut(m[1], "#")
				if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				if _, err := os.Stat(target); err != nil {
					t.Errorf("%s:%d: broken link %q", md, i+1, m[1])
				}
			}
		}
	}
}
