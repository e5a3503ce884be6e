package router

import (
	"fmt"

	"repro/internal/checksum"
	"repro/internal/hdlsim"
	"repro/internal/packet"
)

// LoopbackEndpoint is a hdlsim.DriverEndpoint that verifies packets
// locally and instantly, with no board, no OS and no socket. It serves two
// purposes:
//
//   - it is the "simulation without synchronization" normalizer of the
//     paper's Figure 6 (T_sync = ∞): the same HDL workload at pure
//     simulator speed;
//   - it lets the router model be unit-tested in isolation.
//
// Verdicts are delivered after ResponseDelay further PollData calls
// (default 1), emulating an idealized zero-latency checker.
type LoopbackEndpoint struct {
	// ResponseDelay delays each verdict by that many cycles (PollData
	// calls). 0 means the verdict is visible the very next cycle.
	ResponseDelay uint64

	slots    map[uint32][]uint32 // slot addr → last block written
	pipeline []delayedVerdict
	boardCy  uint64
	ints     uint64
}

type delayedVerdict struct {
	due  uint64
	seq  uint32
	ok   bool
	tick uint64
}

// NewLoopbackEndpoint creates the endpoint.
func NewLoopbackEndpoint() *LoopbackEndpoint {
	return &LoopbackEndpoint{slots: make(map[uint32][]uint32)}
}

var _ hdlsim.DriverEndpoint = (*LoopbackEndpoint)(nil)

// PollData implements hdlsim.DriverEndpoint: it releases due verdicts.
func (l *LoopbackEndpoint) PollData() []hdlsim.DataMsg {
	l.boardCy++
	var out []hdlsim.DataMsg
	rest := l.pipeline[:0]
	for _, v := range l.pipeline {
		if v.due <= l.boardCy {
			ok := uint32(0)
			if v.ok {
				ok = 1
			}
			out = append(out, hdlsim.DataMsg{
				Kind:  hdlsim.DataWrite,
				Addr:  RegVerdictBase,
				Words: []uint32{v.seq, ok},
			})
		} else {
			rest = append(rest, v)
		}
	}
	l.pipeline = rest
	return out
}

// SendData implements hdlsim.DriverEndpoint: slot writes are remembered,
// a sequence-register write triggers verification of the slot it names,
// and interrupts are counted and otherwise ignored.
func (l *LoopbackEndpoint) SendData(m hdlsim.DataMsg) error {
	if m.Kind == hdlsim.DataInterrupt {
		l.ints++
	}
	if m.Kind != hdlsim.DataWrite {
		return nil
	}
	if m.Addr == RegRxSeq && len(m.Words) == 1 {
		seq := m.Words[0]
		slot, ok := l.slots[SlotAddr(seq)]
		if !ok || len(slot) < 1 {
			return fmt.Errorf("router: loopback: seq %d names an unwritten slot", seq)
		}
		n := slot[0]
		if int(n) > len(slot)-1 {
			return fmt.Errorf("router: loopback: slot header claims %d words", n)
		}
		p, _, err := packet.Decode(slot[1 : 1+n])
		valid := err == nil && checksum.InternetWords(checksumInputWords(p)) == p.Checksum
		l.pipeline = append(l.pipeline, delayedVerdict{
			due: l.boardCy + 1 + l.ResponseDelay, seq: seq, ok: valid,
		})
		return nil
	}
	cp := make([]uint32, len(m.Words))
	copy(cp, m.Words)
	l.slots[m.Addr] = cp
	return nil
}

// Sync implements hdlsim.DriverEndpoint: the phantom board is always
// exactly in step.
func (l *LoopbackEndpoint) Sync(ticks, hwCycle uint64) (uint64, error) {
	return hwCycle, nil
}

// Finish implements hdlsim.DriverEndpoint.
func (l *LoopbackEndpoint) Finish(hwCycle uint64) error { return nil }

// Interrupts returns how many INT packets the router raised.
func (l *LoopbackEndpoint) Interrupts() uint64 { return l.ints }
