package obs_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var metricName = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)

// exemplarSuffix matches the payload after " # " on a bucket line: a label
// set and a float value.
var exemplarSuffix = regexp.MustCompile(`^\{[a-z_][a-z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-z_][a-z0-9_]*="(?:[^"\\]|\\.)*")*\} \S+$`)

// lintExposition holds an exposition to the format rules every consumer of
// the shared encoder relies on: each emitted series belongs to a family
// with # HELP and # TYPE lines, and every family name is a legal Prometheus
// metric name. Returns the number of sample lines checked.
func lintExposition(t *testing.T, data []byte) int {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]string{}
	samples := 0
	for ln, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d: empty line in exposition", ln+1)
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || fields[3] == "" {
				t.Errorf("line %d: malformed comment %q", ln+1, line)
				continue
			}
			name := fields[2]
			if !metricName.MatchString(name) {
				t.Errorf("line %d: illegal metric name %q", ln+1, name)
			}
			if fields[1] == "HELP" {
				helped[name] = true
			} else {
				switch typ := fields[3]; typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
					typed[name] = typ
				default:
					t.Errorf("line %d: unknown metric type %q", ln+1, typ)
				}
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: unexpected comment %q", ln+1, line)
			continue
		}
		samples++
		// OpenMetrics-style exemplar suffix: only bucket lines may carry one,
		// and it must be a label set followed by a value.
		if i := strings.Index(line, " # "); i >= 0 {
			suffix := line[i+len(" # "):]
			line = line[:i]
			if !strings.Contains(line, "_bucket") {
				t.Errorf("line %d: exemplar on non-bucket series %q", ln+1, line)
			}
			if !exemplarSuffix.MatchString(suffix) {
				t.Errorf("line %d: malformed exemplar %q", ln+1, suffix)
			}
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		if typed[family] == "" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && typed[base] == "histogram" {
					family = base
					break
				}
			}
		}
		if !metricName.MatchString(name) {
			t.Errorf("line %d: illegal series name %q", ln+1, name)
		}
		if !helped[family] {
			t.Errorf("line %d: series %q has no # HELP line", ln+1, name)
		}
		if typed[family] == "" {
			t.Errorf("line %d: series %q has no # TYPE line", ln+1, name)
		}
	}
	return samples
}

// TestMetricsExpositionLint lints the file-export path: every series
// WriteMetrics emits must carry HELP/TYPE and a legal name.
func TestMetricsExpositionLint(t *testing.T) {
	o := goldenObserver(t)
	var buf bytes.Buffer
	if err := o.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if n := lintExposition(t, buf.Bytes()); n == 0 {
		t.Fatal("WriteMetrics emitted no samples")
	}
}

// TestRegistryRendersSources lints the live-scrape path and checks that a
// Registry renders its sources in registration order, through both Render
// and the HTTP handler.
func TestRegistryRendersSources(t *testing.T) {
	r := obs.NewRegistry()
	r.Register(obs.SourceFunc(func(e *obs.Encoder) {
		e.Family("live_uptime_seconds", "gauge", "Seconds since start.")
		e.Float("live_uptime_seconds", nil, 12.5)
	}))
	h := obs.NewLatencyHistogram()
	h.RecordDuration(3 * time.Microsecond)
	h.RecordDuration(90 * time.Microsecond)
	r.Register(obs.SourceFunc(func(e *obs.Encoder) {
		e.Family("live_latency_ns", "histogram", "Request latency in nanoseconds.")
		e.Histo("live_latency_ns", obs.L("client", "0"), h)
	}))

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := lintExposition(t, buf.Bytes()); n == 0 {
		t.Fatal("registry emitted no samples")
	}
	up := strings.Index(out, "live_uptime_seconds 12.5")
	lat := strings.Index(out, `live_latency_ns_bucket{client="0",le="4096"} 1`)
	if up < 0 || lat < 0 {
		t.Fatalf("render missing expected series:\n%s", out)
	}
	if up > lat {
		t.Fatal("sources rendered out of registration order")
	}
	if !strings.Contains(out, `live_latency_ns_count{client="0"} 2`) {
		t.Fatalf("histogram count series missing:\n%s", out)
	}

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("scrape status %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Fatalf("scrape content-type %q", got)
	}
	if rec.Body.String() != out {
		t.Fatal("HTTP scrape differs from Render output")
	}
}

// TestEncoderLabelEscaping pins the label-value escaping rules of the text
// format: backslash, double quote, and newline must come out as \\, \", and
// \n inside the quoted value. The encoder leans on Go's %q, whose escaping
// coincides with Prometheus's for exactly these three characters — this test
// is what keeps that coincidence load-bearing.
func TestEncoderLabelEscaping(t *testing.T) {
	cases := []struct {
		name  string
		value string
		want  string
	}{
		{"backslash", `a\b`, `esc_total{path="a\\b"} 1`},
		{"quote", `say "hi"`, `esc_total{path="say \"hi\""} 1`},
		{"newline", "line1\nline2", `esc_total{path="line1\nline2"} 1`},
		{"mixed", "q\"\\\n", `esc_total{path="q\"\\\n"} 1`},
		{"plain", "plain", `esc_total{path="plain"} 1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			e := obs.NewEncoder(&buf)
			e.Family("esc_total", "counter", "Escaping probe.")
			e.Uint("esc_total", obs.L("path", tc.value), 1)
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			lintExposition(t, buf.Bytes())
			lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
			if got := lines[len(lines)-1]; got != tc.want {
				t.Fatalf("escaped sample:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestHistoScaledExemplars checks the scaled-histogram path: nanosecond
// buckets render as seconds, and an exemplar rides its bucket line in
// OpenMetrics form with the scaled service time as its value.
func TestHistoScaledExemplars(t *testing.T) {
	h := obs.NewLatencyHistogram()
	h.RecordDuration(3 * time.Microsecond)
	ex := []obs.Exemplar{{
		Bucket: h.BucketIndex(float64(3 * time.Microsecond.Nanoseconds())),
		Op:     "get", Key: 42, Shard: 1,
		Queue: time.Microsecond, Service: 3 * time.Microsecond,
		Total: 4 * time.Microsecond, Pages: 2,
	}}
	var buf bytes.Buffer
	e := obs.NewEncoder(&buf)
	e.Family("svc_seconds", "histogram", "Service time in seconds.")
	e.HistoScaled("svc_seconds", nil, h, 1e-9, ex)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if lintExposition(t, buf.Bytes()) == 0 {
		t.Fatal("no samples emitted")
	}
	// 3µs lands in the 2^12 ns bucket; all values render scaled to seconds.
	// Expected strings are built with the encoder's own arithmetic
	// (float64(ns) * scale) so the assertion is not hostage to float
	// shortest-representation quirks.
	sec := func(ns int64) string {
		return strconv.FormatFloat(float64(ns)*1e-9, 'g', -1, 64)
	}
	want := fmt.Sprintf(
		`svc_seconds_bucket{le="%s"} 1 # {op="get",key="42",shard="1",queue="%s",total="%s",pages="2"} %s`,
		sec(4096), sec(1000), sec(4000), sec(3000))
	if !strings.Contains(out, want) {
		t.Fatalf("missing exemplar bucket line %q in:\n%s", want, out)
	}
	if !strings.Contains(out, "svc_seconds_sum "+sec(3000)) {
		t.Fatalf("sum not scaled to seconds:\n%s", out)
	}
}
