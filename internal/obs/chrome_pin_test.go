package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateChrome = flag.Bool("update-chrome", false, "rewrite testdata/chrome-sample.json from the current exporter")

// TestChromeTracePinned pins the exporter's bytes: the same events and
// manifest must render to the checked-in document, so a change to the
// trace-event types or their encoding shows up as a diff here.
func TestChromeTracePinned(t *testing.T) {
	man := Manifest{Tool: "pin", GoVersion: "go0", GitCommit: "abc", Seed: 7,
		Config: "arch=ultra1 n=4", Prog: []string{"li r1, 1", "add r2, r1, r1", "halt"}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, man, sampleEvents(), nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome-sample.json")
	if *updateChrome {
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
		t.Fatalf("chrome trace deviates from %s:\ngot:\n%s", path, buf.String())
	}
}
