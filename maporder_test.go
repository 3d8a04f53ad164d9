package canec_test

// The map-order gate: Go randomises map iteration, so a range over a map
// in a package that runs in virtual time can leak that order into a
// trace, a report or the kernel's event order. Every such loop must
// either go (walk a slice, or collect and sort the keys) or carry an
// `// order-free:` comment, on the line above the loop or at its end,
// that says why its order cannot reach an output. The scan reads the
// non-test files of the one module load it shares with the dead-surface
// gate.

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// virtualTimePackages are the packages whose code runs in, or reports
// on, virtual time.
var virtualTimePackages = []string{
	"internal/sim", "internal/can", "internal/core", "internal/clock",
	"internal/calendar", "internal/gateway", "internal/binding",
	"internal/frag", "internal/edf", "internal/prob", "internal/scenario",
	"internal/experiments", "internal/chaos", "internal/control",
	"internal/obs", "internal/obs/causal",
}

const orderFreeTag = "// order-free:"

func TestNoMapOrderInVirtualTime(t *testing.T) {
	l, err := thisModule()
	if err != nil {
		t.Fatal(err)
	}
	loops, err := scanMapRanges(l, virtualTimePackages)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range loops {
		t.Errorf("%s: range over a map: iterate in a defined order, or say why the order cannot reach an output in an %q comment", l, orderFreeTag)
	}
}

// TestMapRangeScanner runs the scan over a synthetic module: only the
// unannotated range over a map, and the one whose comment gives no
// reason, may be reported.
func TestMapRangeScanner(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"p/p.go": `package p

type set map[int]bool

func F(m map[string]int, s set, xs []int) (n int) {
	for _, v := range m { // line 6: reported
		n += v
	}
	// order-free: a sum does not depend on the order.
	for _, v := range m {
		n += v
	}
	for k := range s { // order-free: counting keys.
		n += k
	}
	// order-free:
	for k := range s { // line 17: no reason given, reported
		n += k
	}
	for _, x := range xs {
		n += x
	}
	return n
}
`,
		"q/q.go": "package q\n\nfunc G(m map[int]int) {\n\tfor range m {\n\t}\n}\n",
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
	l, err := loadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scanMapRanges(l, []string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p/p.go:6", "p/p.go:17"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
}

// scanMapRanges returns, as root-relative file:line, every range over a
// map in the non-test files of the packages pkgs (paths relative to the
// root of the module l loaded) that carries no order-free comment with a
// reason.
func scanMapRanges(l *surfaceLoader, pkgs []string) ([]string, error) {
	want := map[string]bool{}
	for _, p := range pkgs {
		want[l.module+"/"+p] = true
		if _, err := l.Import(l.module + "/" + p); err != nil {
			return nil, err
		}
	}
	var loops []string
	for _, p := range l.mods {
		if !want[p.pkg.Path()] {
			continue
		}
		for _, f := range p.files {
			// Last lines of the comments that open with the tag and a
			// reason (which may run on over further lines).
			tagged := map[int]bool{}
			for _, cg := range f.Comments {
				if why, ok := strings.CutPrefix(cg.List[0].Text, orderFreeTag); ok && strings.TrimSpace(why) != "" {
					tagged[surfaceFset.Position(cg.End()).Line] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := p.info.Types[rs.X].Type.Underlying().(*types.Map); !isMap {
					return true
				}
				pos := surfaceFset.Position(rs.For)
				if tagged[pos.Line-1] || tagged[surfaceFset.Position(rs.Body.Lbrace).Line] {
					return true
				}
				rel, _ := filepath.Rel(l.root, pos.Filename)
				loops = append(loops, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line))
				return true
			})
		}
	}
	return loops, nil
}
