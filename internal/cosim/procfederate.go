package cosim

import (
	"fmt"

	"repro/internal/hdlsim"
)

// ProcFederate fronts an external party — typically a board process —
// that speaks the v2 wire protocol over any transport kind. It is the
// grant-issuing side of the link (it wraps an HWEndpoint), so from the
// time manager's perspective the remote process is a federate: Exchange
// forwards inbound events onto the DATA/INT channels, Step grants the
// quantum on CLOCK and waits for the acknowledgement, and the collected
// acknowledgement traffic flows back into the federation.
//
// Because the forwarded events hit the wire in the same channel order as
// a plain driver loop's mid-quantum sends (DATA/INT frames, then the
// CLOCK grant carrying their drain counts), a K=2 federation produces
// byte-identical wire traffic to Simulator.DriverSimulate over an
// HWEndpoint at the same TSync.
type ProcFederate struct {
	name  string
	ep    *HWEndpoint
	cur   SimTime
	begun bool // BeginStep already sent the grant for the next Step
}

// NewProcFederate wraps an already-configured HWEndpoint (mode,
// AckTimeout, Observe) as a federate.
func NewProcFederate(name string, ep *HWEndpoint) *ProcFederate {
	return &ProcFederate{name: name, ep: ep}
}

// Name implements Federate.
func (f *ProcFederate) Name() string { return f.name }

// Exchange implements Federate: inbound events are forwarded on the wire
// immediately (the grant that follows carries their drain counts), and
// the DATA traffic announced by the last acknowledgement is returned.
func (f *ProcFederate) Exchange(in []hdlsim.DataMsg) ([]hdlsim.DataMsg, error) {
	for _, m := range in {
		if err := f.ep.SendData(m); err != nil {
			return nil, err
		}
	}
	return f.ep.PollData(), nil
}

// BeginStep implements SplitStepper: it sends the CLOCK grant, carrying
// the federation's lookahead promise, without waiting, so the manager can
// launch all remote parties' quanta before collecting any
// acknowledgement.
func (f *ProcFederate) BeginStep(until SimTime, lookahead uint64) error {
	if until < f.cur {
		return fmt.Errorf("cosim: %s: step backwards (%d < %d)", f.name, until, f.cur)
	}
	if err := f.ep.sendGrant(uint64(until-f.cur), uint64(until), lookahead); err != nil {
		return err
	}
	f.begun = true
	return nil
}

// Step implements Federate: grant (unless BeginStep already did; a plain
// Step promises NoLookahead) and wait for the remote acknowledgement,
// with the same pipelined-mode overlap as HWEndpoint.Sync.
func (f *ProcFederate) Step(until SimTime) (SimTime, error) {
	if !f.begun {
		if err := f.BeginStep(until, NoLookahead); err != nil {
			return f.cur, err
		}
	}
	f.begun = false
	f.cur = until
	if f.ep.mode == SyncPipelined && f.ep.outstanding <= 1 {
		return f.cur, nil
	}
	if f.ep.outstanding > 0 {
		if err := f.ep.consumeAck(); err != nil {
			return f.cur, err
		}
	}
	return f.cur, nil
}

// Lookahead implements Federate: the remote party's promise, in grant
// ticks, from its most recent acknowledgement. In pipelined mode that
// acknowledgement describes a quantum that is already one grant stale,
// so the promise cannot be trusted and NoLookahead disables elongation.
func (f *ProcFederate) Lookahead() uint64 {
	if f.ep.mode == SyncPipelined {
		return NoLookahead
	}
	return f.ep.lastLookahead
}

// Done implements Federate: a wire party never ends the run on its own.
func (f *ProcFederate) Done() bool { return false }

// Finish implements Federate: the MTFinish/MTFinishAck shutdown
// handshake, draining any outstanding acknowledgement first.
func (f *ProcFederate) Finish(at SimTime) error { return f.ep.Finish(uint64(at)) }

// BoardTime implements BoardClock.
func (f *ProcFederate) BoardTime() (cycle, swTick uint64) { return f.ep.BoardTime() }

// Metrics returns the link counters (valid after the run).
func (f *ProcFederate) Metrics() *Metrics { return f.ep.Metrics() }

var _ Federate = (*ProcFederate)(nil)
var _ SplitStepper = (*ProcFederate)(nil)
var _ BoardClock = (*ProcFederate)(nil)
