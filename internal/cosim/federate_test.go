package cosim

import (
	"strings"
	"testing"

	"repro/internal/hdlsim"
	"repro/internal/sim"
)

// TestExchangeRejectsForeignKinds: a federate refuses an inbound event
// kind it has no path for — the device kernel is never sent read
// responses or interrupts, and a wire party never receives a read
// request — and the refusal names the kind. The same federate accepts a
// write, so the rejection is about the kind, not the federate.
func TestExchangeRejectsForeignKinds(t *testing.T) {
	simFed := func(t *testing.T) Federate {
		s := hdlsim.NewSimulator("dev")
		clk := s.NewClock("clk", sim.NS(10))
		f, err := NewSimFederate("dev", s, clk)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	procFed := func(t *testing.T) Federate {
		hwT, boardT := NewInProcPair(64)
		t.Cleanup(func() { hwT.Close(); boardT.Close() })
		return NewProcFederate("board", NewHWEndpoint(hwT, SyncAlternating))
	}
	cases := []struct {
		name string
		fed  func(*testing.T) Federate
		kind hdlsim.DataKind
	}{
		{"sim/read-resp", simFed, hdlsim.DataReadResp},
		{"sim/interrupt", simFed, hdlsim.DataInterrupt},
		{"proc/read-req", procFed, hdlsim.DataReadReq},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.fed(t)
			_, err := f.Exchange([]hdlsim.DataMsg{{Kind: tc.kind, Addr: 0x10, Count: 1, Words: []uint32{1}, IRQ: 2}})
			if err == nil {
				t.Fatalf("%s accepted a %v", f.Name(), tc.kind)
			}
			if !strings.Contains(err.Error(), tc.kind.String()) {
				t.Fatalf("refusal %q does not name the kind %v", err, tc.kind)
			}
			if _, err := f.Exchange([]hdlsim.DataMsg{{Kind: hdlsim.DataWrite, Addr: 0x10, Words: []uint32{1}}}); err != nil {
				t.Fatalf("%s refused a write: %v", f.Name(), err)
			}
		})
	}
}
