package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files instead of comparing")

// TestCrashdemoGolden locks the demo's full narration for fixed flags. The
// simulation is deterministic, so the ADR damage tally (lines at risk,
// dropped, torn), the poisoned lines, the surviving keys, the discarded
// acks and the campaign counts are pure functions of the build; any drift
// in the persistence model or the recovery paths shows up as a byte diff.
// Regenerate intentionally with: go test ./cmd/treesls-crashdemo -update
func TestCrashdemoGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"eadr", nil},
		{"adr-media-faults", []string{"-persist-mode", "adr", "-media-faults", "2"}},
		{"adr-replicate", []string{"-persist-mode", "adr", "-replicate"}},
		{"adr-shards", []string{"-persist-mode", "adr", "-shards", "3"}},
		{"adr-reshard", []string{"-persist-mode", "adr", "-shards", "3", "-reshard"}},
		{"adr-campaign-media-repl", []string{"-persist-mode", "adr", "-campaign", "media-repl"}},
		{"adr-campaign-media-reshard", []string{"-persist-mode", "adr", "-campaign", "media-reshard"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tc.args, &buf); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output drifted from %s:\n%s", golden, firstDiff(want, buf.Bytes()))
			}
		})
	}
}

// TestCrashdemoRejectsUnknownCampaign checks that a bad -campaign fails
// with a named error instead of exiting the process.
func TestCrashdemoRejectsUnknownCampaign(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-campaign", "bogus"}, &buf); err == nil {
		t.Fatal("run accepted an unknown campaign")
	}
	if buf.Len() != 0 {
		t.Errorf("unknown campaign printed %q", buf.String())
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < min(len(wl), len(gl)); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line count: want %d, got %d", len(wl), len(gl))
}
