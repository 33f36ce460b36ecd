package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchDoc is the document every bench-regression gate emits as
// BENCH_<name>.json for the CI job to archive.
type benchDoc[R any] struct {
	Figure string `json:"figure"`
	Scale  string `json:"scale"`
	// KeysMoved is set only by the reshard-pause figure.
	KeysMoved *uint64 `json:"keys_moved,omitempty"`
	Rows      []R     `json:"rows"`
}

// writeBenchJSON encodes doc, checks that it round-trips, and writes it to
// the file named by the environment variable env when that is set, as in
// the CI job.
func writeBenchJSON[R any](t *testing.T, env string, doc benchDoc[R]) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	var back benchDoc[R]
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("%s document does not round-trip: %v", doc.Figure, err)
	}
	if len(back.Rows) != len(doc.Rows) || !reflect.DeepEqual(back.KeysMoved, doc.KeysMoved) {
		t.Fatalf("%s document lost data: %d/%d rows, keys moved %v/%v",
			doc.Figure, len(back.Rows), len(doc.Rows), back.KeysMoved, doc.KeysMoved)
	}
	if out := os.Getenv(env); out != "" {
		if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}
}
