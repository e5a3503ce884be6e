package router

import (
	"context"
	"testing"

	"repro/internal/cosim"
	"repro/internal/obs"
)

// fedTransports lists the transport kinds the federation matrix covers
// on this platform.
func fedTransports() []TransportKind {
	kinds := []TransportKind{TransportInProc, TransportTCP, TransportUDS}
	if cosim.ShmSupported() {
		kinds = append(kinds, TransportShm)
	}
	return kinds
}

// TestFederationPairwiseBitIdentity is the K=2 acceptance gate of the
// time-manager redesign: a one-board federation — RunFederation, and
// router.Run, which is one — must replicate the committed pairwise
// goldens exactly: the same virtual-time fingerprint AND the same
// rendezvous schedule (SyncEvents, SyncsElided, LastBoardCy), on every
// transport, alternating, pipelined and with adaptive elongation.
func TestFederationPairwiseBitIdentity(t *testing.T) {
	goldens := loadGoldens(t)
	for _, kind := range fedTransports() {
		t.Run(kind.String(), func(t *testing.T) {
			for _, c := range goldenCases(kind) {
				t.Run(c.sched, func(t *testing.T) {
					fed, err := RunFederation(context.Background(), FederationConfig{Boards: 1}, WithConfig(c.rc))
					if err != nil {
						t.Fatalf("federation: %v", err)
					}
					run, err := Run(context.Background(), Transports{}, WithConfig(c.rc))
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					for _, res := range []RunResult{fed.RunResult, run} {
						checkGolden(t, goldens, c.name(), res)
						if c.rc.Adaptive && res.HW.SyncsElided == 0 {
							t.Error("adaptive run elided nothing — the negotiation is not reaching the manager")
						}
						if res.TransportKind != kind {
							t.Errorf("reported transport %v, want %v", res.TransportKind, kind)
						}
						if res.Conservation != nil {
							t.Errorf("conservation: %v", res.Conservation)
						}
					}
				})
			}
		})
	}
}

// TestFederationInProcBoardIdentity: hosting the board in-process as a
// board.Federate (no wire, no goroutine) must still match the pairwise
// golden — the grant application order is the wire contract, not a
// transport artifact.
func TestFederationInProcBoardIdentity(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 200

	fed, err := RunFederation(context.Background(), FederationConfig{Boards: 1, InProcBoards: true}, WithConfig(rc))
	if err != nil {
		t.Fatalf("federation: %v", err)
	}
	checkGolden(t, loadGoldens(t), "inproc/alternating", fed.RunResult)
	if fed.TransportKind != TransportInProc {
		t.Errorf("in-process federation reported transport %v", fed.TransportKind)
	}
}

// TestFederationMultiBoardDeterminism covers the 1-device+K-board
// topology: the run must verify every packet, keep the conservation
// invariant, and produce the identical fingerprint on repeated runs (the
// -race build makes this an adversarial-interleaving check for the wire
// variant, which runs each board on its own goroutine).
func TestFederationMultiBoardDeterminism(t *testing.T) {
	for _, inproc := range []bool{false, true} {
		name := "wire"
		if inproc {
			name = "inprocBoards"
		}
		t.Run(name, func(t *testing.T) {
			run := func() FederationResult {
				rc := DefaultRunConfig()
				rc.TB = smallTB()
				rc.TSync = 200
				res, err := RunFederation(context.Background(),
					FederationConfig{Boards: 2, InProcBoards: inproc}, WithConfig(rc))
				if err != nil {
					t.Fatalf("federation: %v", err)
				}
				return res
			}
			a, b := run(), run()
			if a.Accuracy != 1.0 {
				t.Errorf("accuracy %.3f (router %+v)", a.Accuracy, a.Router)
			}
			if a.Conservation != nil {
				t.Errorf("conservation: %v", a.Conservation)
			}
			if len(a.Apps) != 2 || len(a.BoardCycles) != 2 {
				t.Fatalf("%d app stats, %d board clocks", len(a.Apps), len(a.BoardCycles))
			}
			if a.Apps[0].Verified == 0 || a.Apps[1].Verified == 0 {
				t.Errorf("load not split: verified %d/%d", a.Apps[0].Verified, a.Apps[1].Verified)
			}
			if fingerprint(a.RunResult) != fingerprint(b.RunResult) {
				t.Errorf("repeated runs diverged:\nfirst  %+v\nsecond %+v",
					fingerprint(a.RunResult), fingerprint(b.RunResult))
			}
			if a.Fed.Syncs != b.Fed.Syncs || a.Fed.Elided != b.Fed.Elided {
				t.Errorf("schedules diverged: %d/%d vs %d/%d syncs/elided",
					a.Fed.Syncs, a.Fed.Elided, b.Fed.Syncs, b.Fed.Elided)
			}
		})
	}
}

// TestFederationPulseDevices covers the K-device+1-board topology: two
// auxiliary HDL kernels beat into board 0's private windows alongside
// the router traffic. Every emitted heartbeat must arrive (the routed
// exchange loses nothing), deterministically.
func TestFederationPulseDevices(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		name := "plain"
		if adaptive {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) {
			run := func() FederationResult {
				rc := DefaultRunConfig()
				rc.TB = smallTB()
				rc.TSync = 200
				rc.Adaptive = adaptive
				res, err := RunFederation(context.Background(),
					FederationConfig{Boards: 1, PulseDevices: 2}, WithConfig(rc))
				if err != nil {
					t.Fatalf("federation: %v", err)
				}
				return res
			}
			res := run()
			if res.Accuracy != 1.0 {
				t.Errorf("accuracy %.3f with pulse devices attached", res.Accuracy)
			}
			if len(res.PulseSent) != 2 || len(res.PulseSeen) != 2 {
				t.Fatalf("pulse counters: sent %v seen %v", res.PulseSent, res.PulseSeen)
			}
			for p := range res.PulseSent {
				if res.PulseSent[p] == 0 {
					t.Errorf("pulse %d never beat", p)
				}
				if res.PulseSent[p] != res.PulseSeen[p] {
					t.Errorf("pulse %d: %d heartbeats sent, %d observed by the board DSR",
						p, res.PulseSent[p], res.PulseSeen[p])
				}
			}
			again := run()
			if fingerprint(res.RunResult) != fingerprint(again.RunResult) {
				t.Errorf("repeated runs diverged")
			}
			if res.PulseSeen[0] != again.PulseSeen[0] || res.PulseSeen[1] != again.PulseSeen[1] {
				t.Errorf("pulse delivery diverged: %v vs %v", res.PulseSeen, again.PulseSeen)
			}
		})
	}
}

// TestFederationConfigValidate: incoherent topologies fail fast with
// actionable errors, like RunConfig.Validate.
func TestFederationConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		fc   FederationConfig
	}{
		{"no boards", FederationConfig{Boards: 0}},
		{"negative pulses", FederationConfig{Boards: 1, PulseDevices: -1}},
		{"inproc with link stack", FederationConfig{Boards: 1, InProcBoards: true,
			LinkStack: []cosim.StackOption{cosim.WithBatching()}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.fc.Validate(); err == nil {
				t.Fatal("invalid federation config accepted")
			}
			if _, err := RunFederation(context.Background(), tc.fc); err == nil {
				t.Fatal("RunFederation accepted an invalid config")
			}
		})
	}
}

// TestRunDispatchesFederation: the plain Run entry point honors
// WithFederation, returning the embedded pairwise-compatible result.
func TestRunDispatchesFederation(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 200

	viaOption, err := Run(context.Background(), Transports{}, WithConfig(rc),
		WithFederation(FederationConfig{Boards: 1}))
	if err != nil {
		t.Fatalf("federated Run: %v", err)
	}
	checkGolden(t, loadGoldens(t), "inproc/alternating", viaOption)
}

// TestFederationReportsBatchStats: a federated batched run reports the
// wire-frame coalescing counters of board 0's link in RunResult.Batch,
// through Run with WithFederation and through RunFederation alike.
func TestFederationReportsBatchStats(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 200
	rc.Batch = true

	viaRun, err := Run(context.Background(), Transports{}, WithConfig(rc),
		WithFederation(FederationConfig{Boards: 1}))
	if err != nil {
		t.Fatalf("federated Run: %v", err)
	}
	fed, err := RunFederation(context.Background(), FederationConfig{Boards: 2}, WithConfig(rc))
	if err != nil {
		t.Fatalf("RunFederation: %v", err)
	}
	for _, c := range []struct {
		name string
		res  RunResult
	}{{"Run", viaRun}, {"RunFederation", fed.RunResult}} {
		if c.res.Batch.Flushes == 0 || c.res.Batch.Batched == 0 {
			t.Errorf("%s reported batch stats %+v, want MTBatch flushes", c.name, c.res.Batch)
		}
	}
}

// TestFederationMetricSides: a one-board run keeps the two-sided
// "hw"/"board" endpoint labels every dashboard knows, while a multi-board
// federation labels each link by its board party.
func TestFederationMetricSides(t *testing.T) {
	syncs := func(reg *obs.Registry, side string) (uint64, bool) {
		n, ok := reg.Snapshot().Counters[obs.Name(cosim.MetricSyncEvents, "side", side)]
		return n, ok
	}
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 200

	one := obs.NewRegistry()
	res, err := Run(context.Background(), Transports{}, WithConfig(rc), WithObs(one))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, side := range []string{"hw", "board"} {
		if n, _ := syncs(one, side); n != res.HW.SyncEvents {
			t.Errorf("one-board run: side=%q counted %d rendezvous, want %d", side, n, res.HW.SyncEvents)
		}
	}

	two := obs.NewRegistry()
	if _, err := RunFederation(context.Background(), FederationConfig{Boards: 2}, WithConfig(rc), WithObs(two)); err != nil {
		t.Fatalf("RunFederation: %v", err)
	}
	for _, side := range []string{"board0", "board0:board", "board1", "board1:board"} {
		if n, _ := syncs(two, side); n == 0 {
			t.Errorf("two-board run: no rendezvous counted under side=%q", side)
		}
	}
	if _, ok := syncs(two, "hw"); ok {
		t.Error(`two-board run published side="hw"; each link should carry its board's name`)
	}
}
