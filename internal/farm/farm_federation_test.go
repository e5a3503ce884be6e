package farm

import (
	"context"
	"testing"

	"repro/internal/router"
)

// TestFarmRunsFederatedSessions: a RunConfig carrying a federation
// topology flows through SubmitConfig (the raw-config escape hatch —
// federation topologies are deliberately not expressible as a
// SessionSpec) like any other session — a single-board wire federation
// rides the farm's mux link, a multi-board federation wires its own
// links — and both match the equivalent direct run.
func TestFarmRunsFederatedSessions(t *testing.T) {
	f, err := New(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Single wire board over the farm's TCP front door: the explicit
	// K=2 topology is the one a solo run uses, so they must match
	// bit-for-bit.
	spec := quickSpec(0)
	spec.Transport = "tcp"
	solo := soloRun(t, spec)
	rc, err := spec.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	rc.Federation = &router.FederationConfig{Boards: 1}
	s, err := f.SubmitConfig(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("federated session: %v", err)
	}
	if fingerprint(res) != fingerprint(solo) {
		t.Errorf("farm federation diverged from solo run:\nsolo %+v\nfarm %+v", fingerprint(solo), fingerprint(res))
	}

	// A two-board federation cannot ride the single mux link; the farm
	// must hand it a zero Transports value and still complete it.
	rc, err = quickSpec(1).RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	rc.Federation = &router.FederationConfig{Boards: 2}
	s, err = f.SubmitConfig(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = s.Result(); err != nil {
		t.Fatalf("multi-board federated session: %v", err)
	}
	if res.Conservation != nil {
		t.Errorf("conservation: %v", res.Conservation)
	}
	if res.Accuracy != 1.0 {
		t.Errorf("accuracy %.3f", res.Accuracy)
	}
}
