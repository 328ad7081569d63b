package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden compares run's output byte for byte with testdata/name, the
// paper's tables as a checked artifact: any change to a reproduced number
// shows up as a diff of this file.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (rerun with -update if the change is meant):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestRunDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ILP; skipped in -short mode")
	}
	var out bytes.Buffer
	if err := run(&out, 0, false, false); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "default.golden", out.Bytes())
}

func TestRunPaperTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ILP; skipped in -short mode")
	}
	var out bytes.Buffer
	if err := run(&out, 60, true, true); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "paper-timings-plan-dsv60.golden", out.Bytes())
}
