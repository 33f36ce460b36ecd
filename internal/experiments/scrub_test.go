package experiments

import (
	"testing"
)

// TestScrubOverheadGate is the bench-regression gate for the media-scrub
// pass: scrubbing a clean persistent world repairs nothing, its cost grows
// with resident state, and the full row set is emitted as BENCH_scrub.json
// (to $BENCH_SCRUB_OUT when set, as in the CI job).
func TestScrubOverheadGate(t *testing.T) {
	s := QuickScale()
	rows, txt, err := ScrubOverhead(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", txt)

	writeBenchJSON(t, "BENCH_SCRUB_OUT", benchDoc[ScrubRow]{Figure: "scrub-overhead", Scale: s.Name, Rows: rows})

	sizes := []int{s.KVOps / 8, s.KVOps / 2, s.KVOps}
	for _, replicas := range []int{0, 2} {
		var prev ScrubRow
		for i, keys := range sizes {
			r, ok := findScrubRow(rows, replicas, keys)
			if !ok {
				t.Fatalf("missing row replicas=%d keys=%d", replicas, keys)
			}
			// A clean tree must scrub clean: zero repairs, zero
			// unrepairable, zero quarantines — anything else means the
			// checksum machinery flags pristine data.
			if r.Repaired != 0 || r.Unrepairable != 0 {
				t.Errorf("replicas=%d keys=%d: clean scrub reported repaired=%d unrepairable=%d",
					replicas, keys, r.Repaired, r.Unrepairable)
			}
			if r.PagesChecked == 0 || r.RecordsChecked == 0 || r.ScrubUs <= 0 {
				t.Errorf("replicas=%d keys=%d: empty scrub pass: %+v", replicas, keys, r)
			}
			// The pass must cover at least the resident app pages a
			// restore would read.
			if r.PagesChecked < r.AppPages {
				t.Errorf("replicas=%d keys=%d: checked %d pages, below %d resident",
					replicas, keys, r.PagesChecked, r.AppPages)
			}
			// Cost grows strictly with resident state.
			if i > 0 && r.ScrubUs <= prev.ScrubUs {
				t.Errorf("replicas=%d: scrub cost not increasing: %d keys %.1fµs vs %d keys %.1fµs",
					replicas, keys, r.ScrubUs, prev.Keys, prev.ScrubUs)
			}
			prev = r
		}
	}
}

// findScrubRow returns the row for (replicas, keys), or false.
func findScrubRow(rows []ScrubRow, replicas, keys int) (ScrubRow, bool) {
	for _, r := range rows {
		if r.Replicas == replicas && r.Keys == keys {
			return r, true
		}
	}
	return ScrubRow{}, false
}
