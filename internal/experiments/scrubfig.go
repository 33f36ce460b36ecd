package experiments

import (
	"fmt"

	"treesls/internal/apps/kvstore"
	"treesls/internal/kernel"
	"treesls/internal/simclock"
)

// ScrubRow is one point of the scrub-overhead study: what a full media-scrub
// pass over the persistent world costs as a function of resident checkpointed
// state, with and without backup replicas. Not a paper figure — the paper's
// §8 "Data Reliability" proposes scrubbing qualitatively; this extension
// quantifies the background cost the reliability machinery adds.
type ScrubRow struct {
	Keys     int `json:"keys"`
	AppPages int `json:"app_pages"`
	Replicas int `json:"replicas"`
	// ScrubUs is the simulated time of one full scrub pass; PerPageNs is
	// that cost amortized over the pages it verified.
	ScrubUs   float64 `json:"scrub_us"`
	PerPageNs float64 `json:"per_page_ns"`
	// What the pass covered and what it had to do on clean data.
	PagesChecked   int `json:"pages_checked"`
	RecordsChecked int `json:"records_checked"`
	Repaired       int `json:"repaired"`
	Unrepairable   int `json:"unrepairable"`
	// OverheadPct is the steady-state background cost of scrubbing at the
	// documented 10 ms cadence: one pass per 10 ms of simulated time.
	OverheadPct float64 `json:"overhead_pct"`
}

// scrubCadence is the reference cadence the overhead column assumes.
const scrubCadence = 10 * simclock.Millisecond

// ScrubOverhead measures the cost of one media-scrub pass for growing KV
// datasets, with replicas off and on.
func ScrubOverhead(s Scale) ([]ScrubRow, string, error) {
	sizes := []int{s.KVOps / 8, s.KVOps / 2, s.KVOps}
	var rows []ScrubRow
	for _, replicas := range []int{0, 2} {
		for _, keys := range sizes {
			cfg := kernel.DefaultConfig()
			cfg = s.applyObs(cfg)
			cfg.CheckpointEvery = 0
			cfg.Checkpoint.Replicas = replicas
			m := kernel.New(cfg)
			srv, err := kvstore.NewServer(m, kvstore.ServerConfig{
				Name: "kv", Threads: 4,
				HeapPages: heapPagesFor(s, 2), Buckets: 8192,
			})
			if err != nil {
				return nil, "", err
			}
			val := make([]byte, s.ValueSize)
			for i := 0; i < keys; i++ {
				if _, _, err := srv.Set(i, []byte(fmt.Sprintf("key-%08d", i)), val); err != nil {
					return nil, "", err
				}
			}
			m.TakeCheckpoint()
			// A second round makes half the backup slots carry two
			// committed versions, so the scrub also walks fallback slots.
			for i := 0; i < keys; i += 2 {
				srv.Set(i, []byte(fmt.Sprintf("key-%08d", i)), val)
			}
			m.TakeCheckpoint()

			lane := &m.Cores[0].Lane
			before := lane.Now()
			rep := m.Scrub()
			elapsed := lane.Now().Sub(before)

			row := ScrubRow{
				Keys:           keys,
				AppPages:       m.Tree.TotalPMOPages(),
				Replicas:       replicas,
				ScrubUs:        elapsed.Micros(),
				PagesChecked:   rep.PagesChecked,
				RecordsChecked: rep.RecordsChecked,
				Repaired:       rep.Repaired,
				Unrepairable:   rep.Unrepairable,
				OverheadPct:    float64(elapsed) / float64(scrubCadence) * 100,
			}
			if rep.PagesChecked > 0 {
				row.PerPageNs = float64(elapsed) / float64(rep.PagesChecked)
			}
			rows = append(rows, row)
		}
	}

	header := []string{"replicas", "keys", "pages checked", "records", "scrub(µs)", "ns/page", "overhead@10ms(%)"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Replicas), fmt.Sprintf("%d", r.Keys),
			fmt.Sprintf("%d", r.PagesChecked), fmt.Sprintf("%d", r.RecordsChecked),
			f1(r.ScrubUs), f1(r.PerPageNs), f2(r.OverheadPct),
		})
	}
	return rows, "Scrub overhead vs resident state (extension; §8 'Data Reliability')\n" + table(header, cells), nil
}
