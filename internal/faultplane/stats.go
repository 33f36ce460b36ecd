package faultplane

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// CampaignStatsEnv names the environment variable that, when set to a file
// path, makes every engine campaign append its Stats as one JSON line.
// The CI campaign matrix sets it and uploads the file as the
// campaign-stats.json artifact, so fault-space coverage — injections,
// comparisons, convictions per domain — is auditable per run.
const CampaignStatsEnv = "CAMPAIGN_STATS"

var statsMu sync.Mutex

// emittedStats is one campaign-stats.json line: the campaign's Stats plus
// the host time it took. The host fields exist only in the emitted line, so
// the Stats a campaign returns, and every golden built from them, stay
// deterministic.
type emittedStats struct {
	*Stats
	HostMS             float64 `json:"host_ms"`
	HostUSPerInjection float64 `json:"host_us_per_injection"`
}

// emitStats appends st, with host the campaign's wall time, to
// $CAMPAIGN_STATS if set. Emission is best-effort: a stats write must never
// fail a campaign.
func emitStats(st *Stats, host time.Duration) {
	path := os.Getenv(CampaignStatsEnv)
	if path == "" {
		return
	}
	e := emittedStats{Stats: st, HostMS: float64(host.Microseconds()) / 1e3}
	if st.Injections > 0 {
		e.HostUSPerInjection = float64(host.Microseconds()) / float64(st.Injections)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	statsMu.Lock()
	defer statsMu.Unlock()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.Write(append(line, '\n'))
}
