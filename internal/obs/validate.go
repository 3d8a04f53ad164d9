package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// ValidateExposition strictly parses a Prometheus text exposition:
// well-formed HELP/TYPE comments, legal metric and label names, correct
// label-value escaping, parseable sample values (float, +Inf, -Inf,
// NaN) and optional integer timestamps.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typed := map[string]string{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line, typed); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		if err := validateSample(line, typed); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

func validateComment(line string, typed map[string]string) error {
	f := strings.SplitN(line, " ", 4)
	if len(f) < 3 || f[0] != "#" {
		return fmt.Errorf("malformed comment %q", line)
	}
	switch f[1] {
	case "HELP":
		if !metricNameRe.MatchString(f[2]) {
			return fmt.Errorf("HELP for illegal metric name %q", f[2])
		}
	case "TYPE":
		if !metricNameRe.MatchString(f[2]) {
			return fmt.Errorf("TYPE for illegal metric name %q", f[2])
		}
		if len(f) != 4 {
			return fmt.Errorf("TYPE %s missing type", f[2])
		}
		switch f[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("TYPE %s has unknown type %q", f[2], f[3])
		}
		if prev, dup := typed[f[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %s (already %s)", f[2], prev)
		}
		typed[f[2]] = f[3]
	default:
		// Arbitrary comments are legal; nothing to check.
	}
	return nil
}

func validateSample(line string, typed map[string]string) error {
	name, rest, err := scanName(line)
	if err != nil {
		return err
	}
	if strings.HasPrefix(rest, "{") {
		if rest, err = scanLabels(rest); err != nil {
			return fmt.Errorf("metric %s: %w", name, err)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("metric %s: want value [timestamp], got %q", name, rest)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return fmt.Errorf("metric %s: bad value %q", name, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("metric %s: bad timestamp %q", name, fields[1])
		}
	}
	// A histogram's series names append _bucket/_sum/_count to the
	// family name in TYPE; accept those suffixes when matching.
	base := name
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if s, ok := strings.CutSuffix(name, suf); ok {
			if _, isHist := typed[s]; isHist {
				base = s
			}
		}
	}
	if _, ok := typed[base]; !ok {
		return fmt.Errorf("metric %s has no preceding TYPE line", name)
	}
	return nil
}

// scanName splits the metric name off a sample line.
func scanName(line string) (name, rest string, err error) {
	end := strings.IndexAny(line, "{ ")
	if end < 0 {
		return "", "", fmt.Errorf("sample %q has no value", line)
	}
	name = line[:end]
	if !metricNameRe.MatchString(name) {
		return "", "", fmt.Errorf("illegal metric name %q", name)
	}
	return name, line[end:], nil
}

// scanLabels consumes a {name="value",...} label set, enforcing the
// exposition's escape rules inside quoted values (\\, \", \n only).
func scanLabels(s string) (rest string, err error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return "", fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return s[i+1:], nil
		}
		j := strings.IndexByte(s[i:], '=')
		if j < 0 {
			return "", fmt.Errorf("label without '='")
		}
		lname := s[i : i+j]
		if !labelNameRe.MatchString(lname) {
			return "", fmt.Errorf("illegal label name %q", lname)
		}
		i += j + 1
		if i >= len(s) || s[i] != '"' {
			return "", fmt.Errorf("label %s: unquoted value", lname)
		}
		i++ // past opening quote
		for {
			if i >= len(s) {
				return "", fmt.Errorf("label %s: unterminated value", lname)
			}
			switch s[i] {
			case '\\':
				if i+1 >= len(s) {
					return "", fmt.Errorf("label %s: dangling escape", lname)
				}
				switch s[i+1] {
				case '\\', '"', 'n':
					i += 2
				default:
					return "", fmt.Errorf("label %s: illegal escape \\%c", lname, s[i+1])
				}
			case '"':
				i++
				goto valueDone
			default:
				i++
			}
		}
	valueDone:
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}
