package obs

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry exercising every exposition edge
// case: HELP text with backslashes and newlines, label values with
// quotes, backslashes, newlines, and raw UTF-8, a label-less instance
// next to a labelled one, and both histogram backends.
func goldenRegistry() *Registry {
	r := NewRegistry()
	help := "tracks \\ backslash\nand a second line"
	r.Counter("canec_escape_total", help, Labels{
		"path":  `C:\temp`,
		"quote": `say "hi"`,
		"nl":    "line1\nline2",
		"utf8":  "päyload µs",
	}).Add(3)
	r.Counter("canec_escape_total", help, nil).Inc()
	r.Gauge("canec_gauge", "a plain gauge", Labels{"band": "srt"}).Set(0.25)
	h := r.Histogram("canec_fixed_hist", "fixed buckets", Labels{"class": "SRT"}, 0, 10, 2)
	h.Observe(1)
	h.Observe(6)
	h.Observe(42)
	lh := r.LogHistogram("canec_log_hist", "log buckets", nil, 1, 100, 2)
	lh.Observe(5)
	lh.Observe(50)
	lh.Observe(0.5)
	return r
}

// TestWriteTextGolden pins the exposition output byte-for-byte,
// including the escaping rules for HELP lines and label values.
// Regenerate with: go test ./internal/obs -run TestWriteTextGolden -update
func TestWriteTextGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if err := ValidateExposition(strings.NewReader(got)); err != nil {
		t.Errorf("golden registry renders an invalid exposition: %v", err)
	}
	path := filepath.Join("testdata", "prom_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWriteTextEscaping spot-checks the escaping rules independently of
// the golden file, so a careless -update cannot silently bless broken
// output.
func TestWriteTextEscaping(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`# HELP canec_escape_total tracks \\ backslash\nand a second line`,
		`nl="line1\nline2"`,
		`path="C:\\temp"`,
		`quote="say \"hi\""`,
		`utf8="päyload µs"`, // raw UTF-8 passes through unescaped
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "C:\\temp\"") && !strings.Contains(out, `C:\\temp"`) {
		t.Error("single backslash leaked into label value")
	}
	// No raw (unescaped) newline may appear inside any line's payload:
	// every line must start with a metric name or a # comment.
	lineRe := regexp.MustCompile(`^(# (HELP|TYPE) )?[a-zA-Z_:][a-zA-Z0-9_:]*`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !lineRe.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}
