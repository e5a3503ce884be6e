package hdlsim

import (
	"fmt"
	"sort"
)

// This file implements the SystemC kernel modifications of Fummi et al.
// (DATE 2005), section 5.2:
//
//   - two new port classes, driver_in and driver_out, devoted exclusively
//     to communication between a module and the OS running on the board
//     (here: DriverIn receives board→HW register writes, DriverOut exposes
//     the HW registers the board reads and lets the model post writes);
//   - a special process kind, driver_process, triggered when new data is
//     present on a driver_in port (here: a Method sensitive to
//     DriverIn.Data());
//   - a replacement main loop driver_simulate that opens the communication
//     channels and interleaves socket servicing with simulation cycles.

// DataKind discriminates messages on the DATA channel.
type DataKind uint8

const (
	// DataWrite carries register writes (either direction).
	DataWrite DataKind = iota + 1
	// DataReadReq asks the other side for Count words starting at Addr.
	DataReadReq
	// DataReadResp answers a DataReadReq.
	DataReadResp
	// DataInterrupt raises interrupt line IRQ at the receiver: the
	// paper's INT-port packet, carried on the wire's INT channel.
	DataInterrupt
)

// String implements fmt.Stringer.
func (k DataKind) String() string {
	switch k {
	case DataWrite:
		return "write"
	case DataReadReq:
		return "read-req"
	case DataReadResp:
		return "read-resp"
	case DataInterrupt:
		return "interrupt"
	default:
		return fmt.Sprintf("DataKind(%d)", uint8(k))
	}
}

// DataMsg is one boundary event as seen by the kernel, the federates and
// the time manager: DATA-port traffic or an INT-port packet. Addresses
// are word addresses in the remote device's register space. Words
// follows the wire protocol's ownership discipline: the producer hands
// the slice over and must not retain it.
type DataMsg struct {
	Kind  DataKind
	IRQ   uint8 // for DataInterrupt
	Addr  uint32
	Count uint32   // for DataReadReq
	Words []uint32 // for DataWrite / DataReadResp
}

// DriverEndpoint is the kernel's view of the co-simulation link. The cosim
// package provides implementations over TCP and over in-process channels;
// the kernel never sees sockets directly.
type DriverEndpoint interface {
	// PollData returns board→HW DATA messages that are available for this
	// quantum, without blocking.
	PollData() []DataMsg
	// SendData delivers a HW→board message: read responses and posted
	// writes on the DATA port, DataInterrupt packets on the INT port.
	SendData(DataMsg) error
	// Sync performs the CLOCK-port rendezvous: grant the board `ticks`
	// virtual ticks of execution and (eventually) obtain its local time.
	// hwCycle is the kernel's cycle count at the synchronization point.
	Sync(ticks uint64, hwCycle uint64) (boardCycle uint64, err error)
	// Finish tells the board the co-simulation is over.
	Finish(hwCycle uint64) error
}

// RegWrite is one word written by the board into a DriverIn port.
type RegWrite struct {
	Addr uint32
	Val  uint32
}

// DriverIn is the paper's driver_in port: a queue of board-initiated
// register writes targeted at [Base, Base+Size) in the device's word
// address space, with an event that fires when data arrives, so a
// driver_process can react.
type DriverIn struct {
	sim  *Simulator
	name string
	Base uint32
	Size uint32

	q    []RegWrite
	data *Event
}

// NewDriverIn registers a driver_in port covering size words at base.
// Ranges of distinct DriverIns must not overlap.
func (s *Simulator) NewDriverIn(name string, base, size uint32) *DriverIn {
	d := &DriverIn{sim: s, name: name, Base: base, Size: size, data: s.NewEvent(name + ".data")}
	for _, o := range s.driverIns {
		if rangesOverlap(o.Base, o.Size, base, size) {
			panic(fmt.Sprintf("hdlsim: driver_in %q overlaps %q", name, o.name))
		}
	}
	s.driverIns = append(s.driverIns, d)
	sort.Slice(s.driverIns, func(i, j int) bool { return s.driverIns[i].Base < s.driverIns[j].Base })
	return d
}

func rangesOverlap(b1, s1, b2, s2 uint32) bool {
	return b1 < b2+s2 && b2 < b1+s1
}

// Name returns the port name.
func (d *DriverIn) Name() string { return d.name }

// Data returns the event notified when a new board write is queued; a
// DriverProcess is sensitive to it.
func (d *DriverIn) Data() *Event { return d.data }

// Pending returns the number of queued writes.
func (d *DriverIn) Pending() int { return len(d.q) }

// Pop removes and returns the oldest queued write.
func (d *DriverIn) Pop() (RegWrite, bool) {
	if len(d.q) == 0 {
		return RegWrite{}, false
	}
	w := d.q[0]
	d.q = d.q[1:]
	return w, true
}

// push is called by the kernel's driver loop when a board write lands in
// this port's range.
func (d *DriverIn) push(w RegWrite) {
	d.q = append(d.q, w)
	d.data.Notify()
}

// DriverOut is the paper's driver_out port: a register window the board
// can read over the DATA channel, plus a posted-write path for the model
// to push data to the board unsolicited.
type DriverOut struct {
	sim  *Simulator
	name string
	Base uint32
	Size uint32

	regs   []uint32
	posted []DataMsg
}

// NewDriverOut registers a driver_out port exposing size readable words at
// base. Ranges of distinct DriverOuts must not overlap.
func (s *Simulator) NewDriverOut(name string, base, size uint32) *DriverOut {
	d := &DriverOut{sim: s, name: name, Base: base, Size: size, regs: make([]uint32, size)}
	for _, o := range s.driverOuts {
		if rangesOverlap(o.Base, o.Size, base, size) {
			panic(fmt.Sprintf("hdlsim: driver_out %q overlaps %q", name, o.name))
		}
	}
	s.driverOuts = append(s.driverOuts, d)
	return d
}

// Name returns the port name.
func (d *DriverOut) Name() string { return d.name }

// Set updates readable register addr (absolute word address) to val.
func (d *DriverOut) Set(addr, val uint32) {
	if addr < d.Base || addr >= d.Base+d.Size {
		panic(fmt.Sprintf("hdlsim: driver_out %q: Set(%#x) outside [%#x,%#x)", d.name, addr, d.Base, d.Base+d.Size))
	}
	d.regs[addr-d.Base] = val
}

// Get returns the current value of readable register addr.
func (d *DriverOut) Get(addr uint32) uint32 {
	if addr < d.Base || addr >= d.Base+d.Size {
		panic(fmt.Sprintf("hdlsim: driver_out %q: Get(%#x) outside range", d.name, addr))
	}
	return d.regs[addr-d.Base]
}

// Post queues an unsolicited HW→board write (flushed by the driver loop at
// the end of the current cycle).
func (d *DriverOut) Post(addr uint32, words []uint32) {
	cp := make([]uint32, len(words))
	copy(cp, words)
	d.posted = append(d.posted, DataMsg{Kind: DataWrite, Addr: addr, Words: cp})
}

// DriverProcess registers the paper's driver_process: a method process
// sensitive to data arrival on the given driver_in ports.
func (s *Simulator) DriverProcess(name string, fn func(), ins ...*DriverIn) *Process {
	events := make([]*Event, len(ins))
	for i, d := range ins {
		events[i] = d.Data()
	}
	p := s.Method(name, fn, events...)
	p.DontInitialize()
	return p
}

// intWatch is a level-to-edge detector on an interrupt request signal: the
// driver loop checks it after every cycle and sends one INT-port packet per
// rising level, mirroring "the interrupt signal is checked; if it is
// active, a packet is sent to the board via the INT_PORT".
type intWatch struct {
	sig  *BitSignal
	irq  uint8
	prev bool
}

// WatchInterrupt registers sig as the interrupt request line for irq.
func (s *Simulator) WatchInterrupt(sig *BitSignal, irq uint8) {
	s.intWatches = append(s.intWatches, &intWatch{sig: sig, irq: irq})
}

// RaiseDriverInterrupt queues a one-shot interrupt to the board, for models
// that signal completion imperatively instead of via an IRQ wire.
func (s *Simulator) RaiseDriverInterrupt(irq uint8) {
	s.intRaised = append(s.intRaised, irq)
}

// UnboundedLookahead is the lookahead value of a device (or board) with no
// scheduled traffic at all. It mirrors cosim.UnboundedLookahead.
const UnboundedLookahead = ^uint64(0)

// SetInterruptLookahead installs the device model's lookahead oracle for
// adaptive synchronization: fn returns a lower bound, in clock cycles from
// now, before the model can next raise an interrupt or post data to the
// board (0 when one may be imminent, UnboundedLookahead when nothing is
// scheduled). The hook is purely advisory — elongation correctness rests
// on the federation time manager's a-posteriori traffic check — so a
// model that breaks its promise costs one extra rendezvous, never wrong
// results.
// A nil hook (the default) reports UnboundedLookahead.
func (s *Simulator) SetInterruptLookahead(fn func() uint64) {
	s.intLookahead = fn
}

// interruptLookahead evaluates the installed oracle.
func (s *Simulator) interruptLookahead() uint64 {
	if s.intLookahead == nil {
		return UnboundedLookahead
	}
	return s.intLookahead()
}

// routeData dispatches one board→HW DATA message: writes land in the
// covering DriverIn; read requests are served from the covering DriverOut.
func (s *Simulator) routeData(ep DriverEndpoint, m DataMsg) error {
	switch m.Kind {
	case DataWrite:
		for i, w := range m.Words {
			addr := m.Addr + uint32(i)
			din := s.findDriverIn(addr)
			if din == nil {
				return fmt.Errorf("hdlsim: board write to unmapped address %#x", addr)
			}
			din.push(RegWrite{Addr: addr, Val: w})
		}
	case DataReadReq:
		words := make([]uint32, m.Count)
		for i := uint32(0); i < m.Count; i++ {
			addr := m.Addr + i
			dout := s.findDriverOut(addr)
			if dout == nil {
				return fmt.Errorf("hdlsim: board read from unmapped address %#x", addr)
			}
			words[i] = dout.Get(addr)
		}
		return ep.SendData(DataMsg{Kind: DataReadResp, Addr: m.Addr, Words: words})
	default:
		return fmt.Errorf("hdlsim: unexpected DATA message kind %v from board", m.Kind)
	}
	return nil
}

func (s *Simulator) findDriverIn(addr uint32) *DriverIn {
	for _, d := range s.driverIns {
		if addr >= d.Base && addr < d.Base+d.Size {
			return d
		}
	}
	return nil
}

func (s *Simulator) findDriverOut(addr uint32) *DriverOut {
	for _, d := range s.driverOuts {
		if addr >= d.Base && addr < d.Base+d.Size {
			return d
		}
	}
	return nil
}

// Driver is the per-cycle core of the modified simulation loop, exported
// so external coordinators (the federation time manager) can drive a
// kernel quantum-by-quantum with exactly the cycle semantics of
// DriverSimulate: per cycle it (1) checks the DATA port and performs the
// required read/write actions, (2) accomplishes a standard simulation
// cycle, and (3) checks the interrupt signals. Synchronization policy —
// when to rendezvous, when to elide a boundary — is the caller's job:
// DriverSimulate is the plain every-TSync loop on top, and the federation
// time manager (internal/cosim/federation) adds lookahead elision.
type Driver struct {
	s   *Simulator
	clk *Clock
	ep  DriverEndpoint
	st  DriverStats
}

// NewDriver elaborates the design and returns a stepper over it. The
// endpoint only needs PollData/SendData; Sync and Finish are never
// invoked by Cycle.
func (s *Simulator) NewDriver(clk *Clock, ep DriverEndpoint) (*Driver, error) {
	if err := s.Elaborate(); err != nil {
		return nil, err
	}
	return &Driver{s: s, clk: clk, ep: ep}, nil
}

// Cycle performs one driver-loop iteration: route inbound DATA, run one
// clock cycle, scan interrupt lines, and flush posted driver_out writes.
func (d *Driver) Cycle() error {
	// (1) Check for the presence of data on DATA_PORT.
	for _, m := range d.ep.PollData() {
		d.st.DataIn++
		if err := d.s.routeData(d.ep, m); err != nil {
			return err
		}
		if m.Kind == DataReadReq {
			d.st.DataOut++
		}
	}
	// (2) A standard simulation cycle is accomplished.
	if err := d.s.RunCycles(d.clk, 1); err != nil {
		return err
	}
	d.st.Cycles++
	// (3) The interrupt signal is checked.
	for _, w := range d.s.intWatches {
		level := w.sig.Read()
		if level && !w.prev {
			if err := d.ep.SendData(DataMsg{Kind: DataInterrupt, IRQ: w.irq}); err != nil {
				return err
			}
			d.st.Interrupts++
		}
		w.prev = level
	}
	for _, irq := range d.s.intRaised {
		if err := d.ep.SendData(DataMsg{Kind: DataInterrupt, IRQ: irq}); err != nil {
			return err
		}
		d.st.Interrupts++
	}
	d.s.intRaised = d.s.intRaised[:0]
	// Flush posted driver_out writes.
	for _, out := range d.s.driverOuts {
		for _, m := range out.posted {
			if err := d.ep.SendData(m); err != nil {
				return err
			}
			d.st.DataOut++
		}
		out.posted = out.posted[:0]
	}
	return nil
}

// Stopped reports whether the simulator ended the run (sc_stop).
func (d *Driver) Stopped() bool { return d.s.stopped }

// Stats returns the driver-loop counters accumulated so far. SyncEvents,
// SyncsElided and LastBoardCy belong to the synchronization policy:
// DriverSimulate fills them, and a Driver stepped externally leaves them
// zero — the coordinator keeps its own schedule counters.
func (d *Driver) Stats() DriverStats { return d.st }

// InterruptLookahead evaluates the model's lookahead oracle (see
// SetInterruptLookahead).
func (d *Driver) InterruptLookahead() uint64 { return d.s.interruptLookahead() }

// DriverConfig parameterizes DriverSimulate.
type DriverConfig struct {
	// TSync is the synchronization interval in clock cycles: one CLOCK-port
	// rendezvous is performed every TSync cycles. TSync == 1 is lockstep.
	// TSync ≥ TotalCycles degenerates to a single grant (the paper's
	// "simulation without synchronization" normalizer).
	TSync uint64
	// TotalCycles bounds the co-simulation length.
	TotalCycles uint64
	// StopEarly, if non-nil, is polled at every sync boundary; returning
	// true ends the co-simulation before TotalCycles.
	StopEarly func() bool
}

// DriverStats reports what DriverSimulate did.
type DriverStats struct {
	Cycles      uint64 // clock cycles simulated
	SyncEvents  uint64 // CLOCK-port rendezvous performed
	DataIn      uint64 // board→HW DATA messages routed
	DataOut     uint64 // HW→board DATA messages sent (posted + read resps)
	Interrupts  uint64 // INT-port packets sent
	SyncsElided uint64 // TSync boundaries the federation manager elided
	LastBoardCy uint64 // board local cycle at the final sync
}

// DriverSimulate is the paper's modified simulation entry point: it
// replaces the plain simulate() loop with one that, per clock cycle,
// (1) checks the DATA port and performs the required read/write actions,
// (2) accomplishes a standard simulation cycle, and (3) checks the
// interrupt signals, sending an INT-port packet when one is active; every
// cfg.TSync cycles it performs the CLOCK-port synchronization rendezvous
// that grants the board its next slice of virtual ticks.
func (s *Simulator) DriverSimulate(clk *Clock, ep DriverEndpoint, cfg DriverConfig) (DriverStats, error) {
	if cfg.TSync == 0 {
		return DriverStats{}, fmt.Errorf("hdlsim: DriverSimulate requires TSync ≥ 1")
	}
	d, err := s.NewDriver(clk, ep)
	if err != nil {
		return DriverStats{}, err
	}
	sinceSync := uint64(0)
	for d.st.Cycles < cfg.TotalCycles && !s.stopped {
		if err := d.Cycle(); err != nil {
			return d.st, err
		}
		sinceSync++
		// CLOCK-port synchronization every TSync cycles.
		if sinceSync >= cfg.TSync {
			bc, err := ep.Sync(sinceSync, d.st.Cycles)
			if err != nil {
				return d.st, err
			}
			d.st.SyncEvents++
			d.st.LastBoardCy = bc
			sinceSync = 0
			if cfg.StopEarly != nil && cfg.StopEarly() {
				break
			}
		}
	}
	if sinceSync > 0 {
		bc, err := ep.Sync(sinceSync, d.st.Cycles)
		if err != nil {
			return d.st, err
		}
		d.st.SyncEvents++
		d.st.LastBoardCy = bc
	}
	return d.st, ep.Finish(d.st.Cycles)
}
