package canec_test

// The dead-surface gate: every exported identifier under internal/ must
// have a use in a non-test file somewhere in the module; an exported
// function, variable or constant must have one in a non-test file of
// another package. An enum — a parenthesised block of constants of one
// type declared in their package — is one unit: its values are exported
// all or none, and a use of one of them outside the package keeps them
// all. The scan type-checks the whole module, and the
// standard library it imports, from source with go/build + go/parser +
// go/types, so it needs nothing beyond the toolchain.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow holds the exports that stay without a non-test use, each
// with its reason. An entry that gains a use, or whose export is gone,
// fails the gate, so the list can only shrink.
var surfaceAllow = map[string]string{
	"internal/core.SRTEC.CancelPublication": "paper §2.2 channel API: withdraw an SRT publication",
	"internal/core.NRTEC.CancelPublication": "paper §2.2 channel API: withdraw an NRT publication",
	"internal/core.Middleware.Watchdog":     "paper §2.2.1 channel watchdog, reached from the middleware",
	"internal/core.Watchdog.State":          "paper §2.2.1 watchdog state query",
	"internal/sim.Kernel.RunUntilIdle":      "test helper the tests of several packages share: drain a kernel with no periodic sources",
	"internal/golden.Check":                 "test helper: the golden-file comparison the output tests of four packages share",
	"internal/can.Controller.Mute":          "test helper the can and core tests share: silence a station while its queue is kept",
	"internal/core.Lifecycle.Standby":       "test helper the core and chaos tests share: see that a restarted agent station re-armed as standby",
	"internal/obs.NewRegistry":              "test helper the perf and causal tests share: a bare metrics registry",
}

// surfaceInterfaces are the standard-library interfaces whose methods are
// called through the interface, never by name; "" is the universe.
var surfaceInterfaces = [][2]string{
	{"", "error"},
	{"fmt", "Stringer"},
	{"io", "Writer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"},
	{"encoding", "TextUnmarshaler"},
	{"flag", "Value"},
	{"sort", "Interface"},
}

func TestNoDeadExports(t *testing.T) {
	unused, stale, err := scanDeadExports(".", surfaceAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s: %s %s", u.pos, u.name, u.why)
	}
	for _, s := range stale {
		t.Errorf("stale allow-list entry: %s", s)
	}
}

// TestDeadExportScanner runs the scan over a synthetic module: only the
// unused export, the function and constant that only their own package
// uses and the unexported value of an exported enum may be reported (a
// type only its own package uses stays, and so does an enum value whose
// sibling has a use), and a stale allow-list entry must be.
func TestDeadExportScanner(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"main.go": `package main

import "example.com/m/internal/a"

func main() {
	var s a.Shape = a.New(2)
	_ = s.Area()
	_ = a.Box[int]{}.Get()
	_, _ = a.Red, a.ModeA
}
`,
		"internal/a/a.go": `package a

import "fmt"

type Shape interface{ Area() int }

type Sq struct{ n int }

func New(n int) Sq { return Sq{n} }

func (s Sq) Area() int { return s.n * s.n }

func (s Sq) String() string { return fmt.Sprint(s.n + Own(Base)) }

type Local struct{}

func Own(n int) int { _ = Local{}; return n }

const Base = 1

type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func Kept() {}

func Unused() {}

type Color int

const (
	Red Color = iota
	Green
)

type Mode int

const (
	ModeA Mode = iota
	modeB
)
`,
		"internal/a/a_test.go": `package a

func init() { Unused() }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unused, stale, err := scanDeadExports(dir, map[string]string{"internal/a.Kept": "kept"})
	if err != nil {
		t.Fatal(err)
	}
	want := []deadExport{
		{"internal/a/a.go:17", "internal/a.Own", noUse},
		{"internal/a/a.go:19", "internal/a.Base", noUse},
		{"internal/a/a.go:27", "internal/a.Unused", noUse},
		{"internal/a/a.go:40", "internal/a.modeB", halfEnum},
	}
	if fmt.Sprint(unused) != fmt.Sprint(want) {
		t.Errorf("unused = %v, want %v", unused, want)
	}
	if len(stale) != 0 {
		t.Errorf("stale = %v, want none", stale)
	}

	_, stale, err = scanDeadExports(dir, map[string]string{
		"internal/a.Kept": "kept", "internal/a.New": "now used", "internal/a.Gone": "deleted",
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/a.Gone (no such export)", "internal/a.New (has a use)"}; fmt.Sprint(stale) != fmt.Sprint(want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
}

// deadExport is one finding of the scan: where, what and why.
type deadExport struct{ pos, name, why string }

const (
	noUse    = "has no use outside tests: delete it, move it into the test that uses it, or allow-list it with a reason"
	halfEnum = "is an unexported value of an exported enum: export all of its values or none"
)

// scanDeadExports type-checks the module rooted at root and returns the
// exports under internal/ that no non-test file uses and that neither
// implement an interface nor appear in allow, and the unexported values
// of exported enums, plus the allow entries that are stale.
func scanDeadExports(root string, allow map[string]string) (unused []deadExport, stale []string, err error) {
	root, err = filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	l := &surfaceLoader{
		root: root, module: modulePath(mod), ctxt: build.Default,
		fset: token.NewFileSet(), pkgs: map[string]*types.Package{},
	}
	// Without cgo every standard package type-checks from its Go files.
	l.ctxt.CgoEnabled = false

	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		imp := l.module
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		_, err = l.Import(imp)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	var ifaces []*types.Interface
	for _, si := range surfaceInterfaces {
		scope := types.Universe
		if si[0] != "" {
			p, err := l.Import(si[0])
			if err != nil {
				return nil, nil, err
			}
			scope = p.Scope()
		}
		ifaces = append(ifaces, scope.Lookup(si[1]).Type().Underlying().(*types.Interface))
	}
	// used holds every object a non-test file uses; usedOutside those
	// a non-test file of another package uses.
	used := map[types.Object]bool{}
	usedOutside := map[types.Object]bool{}
	seenIface := map[*types.Interface]bool{}
	instances := map[*types.Named][]types.Type{}
	for _, p := range l.mods {
		for _, obj := range p.info.Uses {
			o := origin(obj)
			used[o] = true
			if o.Pkg() != p.pkg {
				usedOutside[o] = true
			}
		}
		for _, inst := range p.info.Instances {
			if n, ok := inst.Type.(*types.Named); ok {
				instances[n.Origin()] = append(instances[n.Origin()], n)
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 && !seenIface[it] {
				seenIface[it] = true
				ifaces = append(ifaces, it)
			}
		}
	}
	implements := func(n *types.Named, method string) bool {
		for _, iface := range ifaces {
			if m, _, _ := types.LookupFieldOrMethod(iface, false, nil, method); m == nil {
				continue
			}
			for _, t := range append([]types.Type{n}, instances[n]...) {
				if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
					return true
				}
			}
		}
		return false
	}

	report := func(obj types.Object, key, why string) {
		pos := l.fset.Position(obj.Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		unused = append(unused, deadExport{fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line), key, why})
	}
	// enum maps each value of an exported enum to all of its values.
	enum := map[types.Object][]types.Object{}
	for _, p := range l.mods {
		rel := strings.TrimPrefix(p.pkg.Path(), l.module+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if vals := enumValues(d, p); len(vals) > 1 {
					exported := 0
					for _, v := range vals {
						if v.Exported() {
							exported++
						}
					}
					for _, v := range vals {
						if exported == len(vals) {
							enum[v] = vals
						} else if exported > 0 && !v.Exported() {
							report(v, rel+"."+v.Name(), halfEnum)
						}
					}
				}
			}
		}
	}

	seen := map[string]bool{}
	check := func(obj types.Object, key string, exempt bool) {
		seen[key] = true
		ok := used[obj] || exempt
		switch obj.(type) {
		case *types.Func, *types.Var, *types.Const:
			if obj.Parent() == obj.Pkg().Scope() {
				ok = usedOutside[obj]
				for _, v := range enum[obj] {
					ok = ok || usedOutside[v]
				}
			}
		}
		if _, allowed := allow[key]; allowed {
			if ok {
				stale = append(stale, key+" (has a use)")
			}
			return
		}
		if !ok {
			report(obj, key, noUse)
		}
	}
	for _, p := range l.mods {
		rel := strings.TrimPrefix(p.pkg.Path(), l.module+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				check(obj, rel+"."+name, false)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if m.Exported() {
					check(m, rel+"."+name+"."+m.Name(), implements(n, m.Name()))
				}
			}
		}
	}
	for key := range allow {
		if !seen[key] {
			stale = append(stale, key+" (no such export)")
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].pos < unused[j].pos })
	sort.Strings(stale)
	return unused, stale, nil
}

// enumValues returns the constants of d when d is an enum: a
// parenthesised const block whose constants all have one named type of
// their own package.
func enumValues(d ast.Decl, p surfacePkg) []types.Object {
	g, ok := d.(*ast.GenDecl)
	if !ok || g.Tok != token.CONST || !g.Lparen.IsValid() {
		return nil
	}
	var vals []types.Object
	var typ *types.Named
	for _, s := range g.Specs {
		for _, id := range s.(*ast.ValueSpec).Names {
			obj := p.info.Defs[id]
			if obj == nil || obj.Name() == "_" {
				continue
			}
			n, _ := obj.Type().(*types.Named)
			if n == nil || n.Obj().Pkg() != p.pkg || typ != nil && n != typ {
				return nil
			}
			typ = n
			vals = append(vals, obj)
		}
	}
	return vals
}

// origin maps a use of an instantiated generic function, method or field
// back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// surfaceLoader is a types.ImporterFrom over one universe: module
// packages are checked in full and kept with their uses; standard
// packages are checked from GOROOT source without function bodies.
type surfaceLoader struct {
	root, module string
	ctxt         build.Context
	fset         *token.FileSet
	pkgs         map[string]*types.Package
	mods         []surfacePkg
}

type surfacePkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *surfaceLoader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	inModule := path == l.module || strings.HasPrefix(path, l.module+"/")
	var bp *build.Package
	var err error
	if inModule {
		bp, err = l.ctxt.ImportDir(filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module))), 0)
		if bp != nil {
			bp.ImportPath = path
		}
	} else {
		bp, err = l.ctxt.Import(path, dir, 0)
	}
	if err != nil {
		return nil, err
	}
	if p := l.pkgs[bp.ImportPath]; p != nil {
		return p, nil
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: !inModule}
	var info *types.Info
	if inModule {
		info = &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		}
	}
	pkg, err := conf.Check(bp.ImportPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", bp.ImportPath, err)
	}
	l.pkgs[bp.ImportPath] = pkg
	if inModule {
		l.mods = append(l.mods, surfacePkg{pkg, info, files})
	}
	return pkg, nil
}
