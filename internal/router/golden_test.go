package router

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/board"
	"repro/internal/cosim"
	"repro/internal/hdlsim"
)

// goldenPath holds the K=2 reference fingerprints. They were captured
// from the pairwise engine (hdlsim.DriverSimulate over a
// cosim.HWEndpoint) before router.Run moved onto the federation time
// manager, so they pin the schedule that engine produced: a run that
// matches them is the same simulation, rendezvous for rendezvous.
var goldenPath = filepath.Join("testdata", "pairwise_golden.json")

// goldenRun is the committed fingerprint of one run: everything it
// decides in virtual time — router, consumer, application and board
// counters, the HDL side's driver-loop counters including the rendezvous
// schedule (SyncEvents, SyncsElided, LastBoardCy), and the final board
// clock.
type goldenRun struct {
	Router       Stats              `json:"router"`
	Consumers    ConsumerStats      `json:"consumers"`
	App          AppStats           `json:"app"`
	Board        board.Stats        `json:"board"`
	HW           hdlsim.DriverStats `json:"hw"`
	Generated    uint64             `json:"generated"`
	SimCycles    uint64             `json:"sim_cycles"`
	BoardCycles  uint64             `json:"board_cycles"`
	BoardSWTicks uint64             `json:"board_sw_ticks"`
}

func goldenOf(r RunResult) goldenRun {
	return goldenRun{
		Router: r.Router, Consumers: r.Consumers, App: r.App, Board: r.Board, HW: r.HW,
		Generated: r.Generated, SimCycles: r.SimCycles,
		BoardCycles: r.BoardCycles, BoardSWTicks: r.BoardSWTicks,
	}
}

// goldenCase is one point of the golden matrix; its golden entry is
// named transport/schedule, e.g. "tcp/pipelined".
type goldenCase struct {
	sched string
	rc    RunConfig
}

func (c goldenCase) name() string { return c.rc.Transport.String() + "/" + c.sched }

// goldenCases crosses transport kind with the three rendezvous
// schedules: alternating, pipelined and adaptive elongation. The adaptive
// point uses sparser traffic so quiet boundaries exist to elide; the busy
// default never has any.
func goldenCases(kind TransportKind) []goldenCase {
	var cases []goldenCase
	for _, sched := range []string{"alternating", "pipelined", "adaptive"} {
		rc := DefaultRunConfig()
		rc.TB = smallTB()
		rc.TSync = 200
		rc.Transport = kind
		switch sched {
		case "pipelined":
			rc.Mode = cosim.SyncPipelined
		case "adaptive":
			rc.Adaptive = true
			rc.TB.Period = 2000
		}
		cases = append(cases, goldenCase{sched: sched, rc: rc})
	}
	return cases
}

// loadGoldens reads the committed fingerprints.
func loadGoldens(t *testing.T) map[string]goldenRun {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]goldenRun
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return g
}

// checkGolden compares one run against the golden of case name.
func checkGolden(t *testing.T, goldens map[string]goldenRun, name string, res RunResult) {
	t.Helper()
	want, ok := goldens[name]
	if !ok {
		t.Fatalf("%s has no entry %q", goldenPath, name)
	}
	if got := goldenOf(res); got != want {
		t.Errorf("%s diverged from the committed golden:\ngot  %+v\nwant %+v", name, got, want)
	}
}
