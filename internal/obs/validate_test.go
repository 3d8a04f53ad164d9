package obs

import (
	"strings"
	"testing"
)

func TestValidateExpositionAcceptsWellFormed(t *testing.T) {
	good := `# HELP canec_events_published_total Events published, by class.
# TYPE canec_events_published_total counter
canec_events_published_total{class="SRT"} 42
canec_events_published_total{class="NRT",subject="0x2a"} 7 1690000000000
# TYPE canec_up gauge
canec_up 1
# TYPE canec_lat histogram
canec_lat_bucket{le="1"} 1
canec_lat_bucket{le="+Inf"} 2
canec_lat_sum 3.5
canec_lat_count 2
# TYPE weird untyped
weird{path="a\\b",msg="say \"hi\"\n"} NaN
`
	if err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Fatalf("well-formed exposition rejected: %v", err)
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad metric name":  "# TYPE 9bad counter\n9bad 1\n",
		"missing TYPE":     "lonely_metric 1\n",
		"bad value":        "# TYPE m counter\nm{a=\"x\"} notanumber\n",
		"bad label name":   "# TYPE m counter\nm{9a=\"x\"} 1\n",
		"unquoted value":   "# TYPE m counter\nm{a=x} 1\n",
		"illegal escape":   "# TYPE m counter\nm{a=\"x\\t\"} 1\n",
		"unterminated":     "# TYPE m counter\nm{a=\"x} 1\n",
		"unknown type":     "# TYPE m speedometer\nm 1\n",
		"duplicate TYPE":   "# TYPE m counter\n# TYPE m gauge\nm 1\n",
		"bad timestamp":    "# TYPE m counter\nm 1 soon\n",
		"value missing":    "# TYPE m counter\nm\n",
		"malformed TYPE":   "# TYPE m\nm 1\n",
		"dangling escape":  "# TYPE m counter\nm{a=\"x\\\n",
		"label without =":  "# TYPE m counter\nm{abc} 1\n",
		"histogram orphan": "orphan_bucket{le=\"1\"} 1\n",
	}
	for name, text := range cases {
		if err := ValidateExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}
