// Package golden compares test output against committed golden files.
// A test binary that imports it accepts -update, which rewrites the files
// from the code under test instead of comparing against them.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the code under test")

// Check compares got with the golden file at path and fails t naming the
// file when they differ. Under -update it writes got to path instead.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = os.WriteFile(path, []byte(got), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s: %v (regenerate with -update)", path, err)
	}
	if got != string(want) {
		t.Errorf("output differs from golden %s (regenerate with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}
