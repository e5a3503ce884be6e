package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/router"
)

// fingerprint is everything a session simulates: two runs of one spec
// must agree on all of it, whatever transport or stack layers carried
// them and however fast the host ran.
type fingerprint struct {
	SimCycles    uint64       `json:"sim_cycles"`
	BoardCycles  uint64       `json:"board_cycles"`
	BoardSWTicks uint64       `json:"board_sw_ticks"`
	Router       router.Stats `json:"router"`
	SyncEvents   uint64       `json:"sync_events"`
	SyncsElided  uint64       `json:"syncs_elided"`
	Accuracy     float64      `json:"accuracy"`
}

func fingerprintOf(r router.RunResult) fingerprint {
	return fingerprint{
		SimCycles:    r.SimCycles,
		BoardCycles:  r.BoardCycles,
		BoardSWTicks: r.BoardSWTicks,
		Router:       r.Router,
		SyncEvents:   r.HW.SyncEvents,
		SyncsElided:  r.HW.SyncsElided,
		Accuracy:     r.Accuracy,
	}
}

// boundaries is the number of T_sync boundaries the session crossed,
// whether it met the peer there or elided the rendezvous.
func (f fingerprint) boundaries() uint64 { return f.SyncEvents + f.SyncsElided }

// matchesFleet compares the part of the fingerprint a fleet
// SessionResult carries: it has no cycle count or elision count.
func (f fingerprint) matchesFleet(r fleet.SessionResult) bool {
	fp := r.Fingerprint
	return fp.Router == f.Router && fp.BoardCycles == f.BoardCycles &&
		fp.BoardSWTicks == f.BoardSWTicks && fp.SyncEvents == f.SyncEvents &&
		r.Accuracy == f.Accuracy
}

//go:embed golden.json
var goldenJSON []byte

// goldens maps a workload name to the reference fingerprints of its spec
// pool at defaultSeed.
type goldens map[string][]fingerprint

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// referenceRun is the untimed oracle for a spec: the spec stripped down to
// what it simulates, run in-process with no chaos, session or batch
// layer. Adaptive stays, because elision changes how many rendezvous
// happen.
func referenceRun(ctx context.Context, spec farm.SessionSpec) (fingerprint, error) {
	rc, err := spec.RunConfig()
	if err != nil {
		return fingerprint{}, err
	}
	rc.Transport = router.TransportInProc
	rc.Chaos, rc.Resilience, rc.Batch = nil, nil, false
	res, err := router.Run(ctx, router.Transports{}, router.WithConfig(rc))
	if err == nil {
		err = res.Conservation
	}
	if err != nil {
		return fingerprint{}, fmt.Errorf("reference run: %w", err)
	}
	return fingerprintOf(res), nil
}

// expectedFingerprints returns the oracle for every spec of the pool:
// the committed goldens at the default seed, fresh reference runs at any
// other.
func expectedFingerprints(ctx context.Context, w workload, seed int64, specs []farm.SessionSpec) ([]fingerprint, error) {
	if seed == defaultSeed {
		g, err := loadGoldens()
		if err != nil {
			return nil, err
		}
		want := g[w.name]
		if len(want) != len(specs) {
			return nil, fmt.Errorf("golden.json holds %d fingerprints for %s, want %d", len(want), w.name, len(specs))
		}
		return want, nil
	}
	out := make([]fingerprint, len(specs))
	for i, spec := range specs {
		fp, err := referenceRun(ctx, spec)
		if err != nil {
			return nil, err
		}
		out[i] = fp
	}
	return out, nil
}

// writeGoldens recomputes the reference fingerprints of every workload at
// the default seed and returns them as golden.json content.
func writeGoldens(ctx context.Context) ([]byte, error) {
	g := goldens{}
	for _, w := range workloads {
		specs := w.specs(poolSeeds(w, defaultSeed))
		for _, spec := range specs {
			fp, err := referenceRun(ctx, spec)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			g[w.name] = append(g[w.name], fp)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
