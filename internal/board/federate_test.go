package board

import (
	"strings"
	"testing"

	"repro/internal/hdlsim"
)

// TestFederateExchangeRejectsReadReq: the in-process board federate
// issues read requests but never serves one, so an inbound DataReadReq
// is refused and the refusal names the kind; writes, read responses and
// interrupts are accepted.
func TestFederateExchangeRejectsReadReq(t *testing.T) {
	f := NewFederate("board", New(testCfg()))
	_, err := f.Exchange([]hdlsim.DataMsg{{Kind: hdlsim.DataReadReq, Addr: 0x10, Count: 1}})
	if err == nil {
		t.Fatal("board federate accepted a read request")
	}
	if !strings.Contains(err.Error(), hdlsim.DataReadReq.String()) {
		t.Fatalf("refusal %q does not name the kind", err)
	}
	for _, k := range []hdlsim.DataKind{hdlsim.DataWrite, hdlsim.DataReadResp, hdlsim.DataInterrupt} {
		if _, err := f.Exchange([]hdlsim.DataMsg{{Kind: k, Addr: 0x10, Words: []uint32{1}, IRQ: 2}}); err != nil {
			t.Fatalf("board federate refused a %v: %v", k, err)
		}
	}
}
