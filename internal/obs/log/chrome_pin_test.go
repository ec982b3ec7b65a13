package obslog_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	obslog "ultrascalar/internal/obs/log"
)

var updateChrome = flag.Bool("update-chrome", false, "rewrite testdata/spans-chrome.json from the current exporter")

// TestSpanChromeTracePinned pins the span exporter's bytes: two traces,
// one span with a detail, on a fake clock.
func TestSpanChromeTracePinned(t *testing.T) {
	clk := newFakeClock()
	rec := obslog.NewSpanRecorder(obslog.SpanOptions{Clock: clk.Now})
	a := obslog.DeriveTraceID("job-000001")
	b := obslog.DeriveTraceID("job-000002")
	sp := rec.Start(a, "queue", "")
	clk.Advance(time.Millisecond)
	sp.End()
	sp = rec.Start(a, "run", "shards=2")
	sp2 := rec.Start(b, "queue", "")
	clk.Advance(5 * time.Millisecond)
	sp.End()
	sp2.End()

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "spans-chrome.json")
	if *updateChrome {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading pin (regenerate with -update-chrome): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("span chrome trace deviates from %s:\ngot:\n%s", path, buf.String())
	}
}
