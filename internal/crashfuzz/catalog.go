package crashfuzz

// The oracle catalog: which named invariants judge each campaign domain.
// The catalog is built by constructing a real (minimal) world per domain
// and reading its registry, so it can never drift from what the campaigns
// actually register — treesls-inspect renders it, and the README table is
// checked against it.

import (
	"fmt"

	"treesls/internal/faultplane"
	"treesls/internal/mem"
)

// OracleSet names one campaign domain and its oracle registry in run order.
type OracleSet struct {
	Campaign string
	Domain   string
	Oracles  []string
}

// OracleCatalog builds a throwaway world for every campaign — the six
// legacy domains and the three composed ones — and reports each registry's
// oracle names in registration order.
func OracleCatalog() ([]OracleSet, error) {
	type entry struct {
		campaign string
		domain   faultplane.Domain
	}
	var (
		crashRes   Result
		netRes     NetResult
		mediaRes   MediaResult
		replRes    ReplResult
		clusterRes ClusterResult
		reshardRes ReshardResult

		mRes  MediaOverlayResult
		pRes  ReplProbeResult
		cRes  ClusterResult
		rRes  ReshardResult
		rpRes ReplResult
	)
	crashCfg := Config{Mode: mem.ModeEADR, Seeds: []uint64{1}}
	crashCfg.fill()
	netCfg := NetConfig{Mode: mem.ModeEADR, Seeds: []uint64{1}}
	netCfg.fill()
	mediaCfg := MediaConfig{Mode: mem.ModeEADR, Seeds: []uint64{1}}
	mediaCfg.fill()
	replCfg := ReplConfig{Mode: mem.ModeEADR, Seeds: []uint64{1}}
	replCfg.fill()
	clusterCfg := ClusterConfig{Mode: mem.ModeEADR, Seeds: []uint64{1}}
	clusterCfg.fill()
	reshardCfg := ReshardConfig{Mode: mem.ModeEADR, Seeds: []uint64{1}}
	reshardCfg.fill()
	replClusterCfg := ClusterConfig{Mode: mem.ModeEADR, Seeds: []uint64{1}, Replicate: true}
	replClusterCfg.fill()
	mediaReplCfg := ReplConfig{Mode: mem.ModeEADR, Seeds: []uint64{1}, Replicas: 2}
	mediaReplCfg.fill()
	mediaReshardCfg := ReshardConfig{Mode: mem.ModeEADR, Seeds: []uint64{1}, Replicas: 2}
	mediaReshardCfg.fill()

	entries := []entry{
		{"crash", crashDomain(crashCfg, &crashRes)},
		{"net", netDomain(netCfg, &netRes)},
		{"media", mediaDomain(mediaCfg, &mediaRes)},
		{"repl", replDomain(replCfg, &replRes)},
		{"cluster", clusterDomain(clusterCfg, &clusterRes)},
		{"reshard", reshardDomain(reshardCfg, &reshardRes)},
		{"media x reshard", faultplane.Compose(
			reshardDomain(mediaReshardCfg, &rRes),
			&mediaOverlay{faultsPerVictim: 1, res: &mRes})},
		{"repl x cluster", faultplane.Compose(
			clusterDomain(replClusterCfg, &cRes),
			&replOverlay{res: &pRes})},
		{"media x repl", faultplane.Compose(
			replDomain(mediaReplCfg, &rpRes),
			&mediaOverlay{faultsPerVictim: 1, res: &mRes})},
	}
	out := make([]OracleSet, 0, len(entries))
	for _, e := range entries {
		rng := faultplane.Stream(1, e.domain.StreamLabel())
		w, err := e.domain.Build(1, rng)
		if err != nil {
			return nil, fmt.Errorf("catalog: building %s world: %w", e.campaign, err)
		}
		out = append(out, OracleSet{
			Campaign: e.campaign,
			Domain:   e.domain.Name(),
			Oracles:  w.Oracles().Names(),
		})
	}
	return out, nil
}
