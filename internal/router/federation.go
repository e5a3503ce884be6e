package router

import (
	"context"
	"fmt"
	"time"

	"repro/internal/board"
	"repro/internal/cosim"
	"repro/internal/cosim/federation"
	"repro/internal/hdlsim"
	"repro/internal/sim"
)

// Pulse-device register map: auxiliary HDL kernels beyond the router
// testbench occupy windows far above the engine strides, one per device,
// each with a heartbeat counter register pair and a private interrupt
// line.
const (
	PulseBase0  = 0x8000
	PulseStride = 0x10
	PulseIRQ0   = 16
)

// PulseBase returns the window base of auxiliary pulse device p.
func PulseBase(p int) uint32 { return PulseBase0 + uint32(p)*PulseStride }

// PulseIRQ returns the interrupt line of auxiliary pulse device p.
func PulseIRQ(p int) uint8 { return uint8(PulseIRQ0 + p) }

// FederationConfig describes an N-party topology for the router
// testbench: one router HDL kernel serving Boards virtual boards (one
// checksum engine each), plus optional auxiliary pulse-device kernels —
// all coordinated by the hierarchical time manager
// (internal/cosim/federation). Boards: 1 is the paper's two-party
// topology, what Run uses without WithFederation.
type FederationConfig struct {
	// Boards is the number of board parties; board i serves checksum
	// engine i through its own link. Must be ≥ 1.
	Boards int
	// InProcBoards hosts the boards in-process as board.Federate parties
	// (no goroutines, no wire). When false each board runs behind a
	// cosim.ProcFederate speaking the v2 wire protocol over the
	// RunConfig's TransportKind.
	InProcBoards bool
	// PulseDevices adds that many auxiliary HDL kernels, each
	// periodically posting a heartbeat counter into a private window on
	// board 0 and raising its interrupt line — the "several HDL kernels
	// on one virtual clock" topology.
	PulseDevices int
	// PulsePeriod is the heartbeat period in clock cycles (0 means
	// 4×TSync).
	PulsePeriod uint64
	// LinkStack appends transport-stack layers to every wire board link,
	// on top of the RunConfig's stack fields (later wins — see
	// cosim.StackOption).
	LinkStack []cosim.StackOption
}

// Validate rejects incoherent federation topologies.
func (fc FederationConfig) Validate() error {
	if fc.Boards < 1 {
		return fmt.Errorf("router: invalid FederationConfig: %d boards — a federation needs at least one board party", fc.Boards)
	}
	if fc.PulseDevices < 0 {
		return fmt.Errorf("router: invalid FederationConfig: negative PulseDevices")
	}
	if fc.PulseDevices > 0 && EngineBase(fc.Boards) > PulseBase0 {
		return fmt.Errorf("router: invalid FederationConfig: %d engine windows collide with the pulse windows at %#x", fc.Boards, PulseBase0)
	}
	if fc.InProcBoards && len(fc.LinkStack) > 0 {
		return fmt.Errorf("router: invalid FederationConfig: LinkStack configured but InProcBoards leaves no wire links to stack it on")
	}
	return nil
}

// FederationResult extends the multi-board result with the federation
// schedule and the auxiliary pulse devices' delivery counters.
type FederationResult struct {
	MultiRunResult
	// Fed is the time manager's schedule accounting.
	Fed federation.Stats
	// PulseSent/PulseSeen count, per pulse device, heartbeats emitted by
	// the device kernel and observed by board 0's DSR. Equal counts show
	// the routed exchange delivered every event.
	PulseSent []uint64
	PulseSeen []uint64
}

// pulseDevice is an auxiliary HDL kernel: every period cycles it posts
// an incrementing heartbeat counter into its board window and raises its
// IRQ. Its next emission is on a closed-form schedule, so it promises an
// exact interrupt lookahead for adaptive elongation.
type pulseDevice struct {
	sim   *hdlsim.Simulator
	clk   *hdlsim.Clock
	count uint64
	next  uint64
	cycle uint64
}

func newPulseDevice(p int, period uint64, clockPeriod sim.Time) *pulseDevice {
	s := hdlsim.NewSimulator(fmt.Sprintf("pulse%d", p))
	d := &pulseDevice{sim: s, clk: s.NewClock("clk", clockPeriod), next: period}
	out := s.NewDriverOut("beat", PulseBase(p), 2)
	s.Method("pulse.main", func() {
		d.cycle++
		if d.cycle >= d.next {
			d.next += period
			d.count++
			out.Set(PulseBase(p), uint32(d.count))
			out.Set(PulseBase(p)+1, uint32(d.count>>32))
			out.Post(PulseBase(p), []uint32{uint32(d.count), uint32(d.count >> 32)})
			s.RaiseDriverInterrupt(PulseIRQ(p))
		}
	}, d.clk.Posedge()).DontInitialize()
	s.SetInterruptLookahead(func() uint64 {
		if d.next > d.cycle {
			return d.next - d.cycle
		}
		return 0
	})
	return d
}

// runFederation is the core of every Run entry point: it executes the
// testbench under the federation time manager, with rc.Federation as the
// topology (nil means one wire board). The router kernel (and any pulse
// kernels) become eager cosim.SimFederate parties; each board becomes a
// granted party — in-process (board.Federate) or behind its own
// transport stack (cosim.ProcFederate) on its own goroutine — and the
// time manager owns the quantum clock. It takes ownership of tr, which
// fits exactly one wire board link. Cancelling ctx tears the wire stacks
// down and stops the manager at the next boundary; the context's cause
// becomes the returned error.
func runFederation(ctx context.Context, rc RunConfig, tr Transports) (res FederationResult, err error) {
	fc := FederationConfig{Boards: 1}
	if rc.Federation != nil {
		fc = *rc.Federation
	}
	res = FederationResult{MultiRunResult: MultiRunResult{RunResult: RunResult{TSync: rc.TSync, TransportKind: rc.Transport, Mode: rc.Mode}}}
	if (tr.HW == nil) != (tr.Board == nil) {
		closeBoth(tr)
		return res, errHalfTransports
	}
	if fc.InProcBoards {
		res.TransportKind = TransportInProc
	}
	if err := fc.Validate(); err != nil {
		closeBoth(tr)
		return res, err
	}
	if err := rc.Validate(); err != nil {
		closeBoth(tr)
		return res, err
	}
	if tr.HW != nil && (fc.Boards != 1 || fc.InProcBoards) {
		closeBoth(tr)
		return res, fmt.Errorf("router: caller-provided Transports fit exactly one wire board link; this federation has %d (InProcBoards=%v)", fc.Boards, fc.InProcBoards)
	}
	if fc.PulsePeriod == 0 {
		fc.PulsePeriod = 4 * rc.TSync
	}
	if rc.Obs != nil {
		// Handles are resolved once up front; a run starts and finishes
		// exactly once, so none of these belong on a struct.
		started := rc.Obs.Counter("router_runs_started_total")
		started.Inc()
		active := rc.Obs.Gauge("router_active_runs")
		active.Add(1)
		failed := rc.Obs.Counter("router_runs_failed_total")
		completed := rc.Obs.Counter("router_runs_completed_total")
		lastAccuracy := rc.Obs.Gauge("router_last_accuracy_pct")
		lastWall := rc.Obs.Gauge("router_last_wall_seconds")
		lastGenerated := rc.Obs.Gauge("router_last_generated_packets")
		lastSyncEvents := rc.Obs.Gauge("router_last_sync_events")
		lastTSync := rc.Obs.Gauge("router_last_tsync")
		defer func() {
			active.Add(-1)
			if err != nil {
				failed.Inc()
				return
			}
			completed.Inc()
			lastAccuracy.Set(100 * res.Accuracy)
			lastWall.Set(res.Wall.Seconds())
			lastGenerated.Set(float64(res.Generated))
			lastSyncEvents.Set(float64(res.HW.SyncEvents))
			lastTSync.Set(float64(res.TSync))
		}()
	}

	rc.TB.Engines = fc.Boards
	tb := BuildTestbench(rc.TB)
	hwFed, err := cosim.NewSimFederate("hw", tb.Sim, tb.Clk)
	if err != nil {
		closeBoth(tr)
		return res, err
	}

	parties := []federation.Party{{Fed: hwFed, Eager: true}}
	var links []federation.Link

	// Auxiliary pulse kernels: eager parties writing into board 0.
	var pulses []*pulseDevice
	for p := 0; p < fc.PulseDevices; p++ {
		pd := newPulseDevice(p, fc.PulsePeriod, rc.TB.ClockPeriod)
		pf, perr := cosim.NewSimFederate(fmt.Sprintf("pulse%d", p), pd.sim, pd.clk)
		if perr != nil {
			closeBoth(tr)
			return res, perr
		}
		pulses = append(pulses, pd)
		parties = append(parties, federation.Party{Fed: pf, Eager: true})
	}

	// Board parties, one per checksum engine. Wire boards each get their
	// own base transport pair, decorator stack and goroutine; in-process
	// boards run as federates on the manager's goroutine.
	var sides []*BoardSide
	var procFeds []*cosim.ProcFederate
	var boardFeds []*board.Federate
	var closers []func() error
	var link0 cosim.Transport // board 0's hw-side stack, for BatchStats
	pulseSeen := make([]uint64, fc.PulseDevices)
	boardDone := make(chan error, fc.Boards)
	wired := 0
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}
	abort := func() {
		closeAll()
		closeBoth(tr)
		for j := 0; j < wired; j++ {
			<-boardDone
		}
	}
	for i := 0; i < fc.Boards; i++ {
		acfg := rc.AppCfg
		acfg.Engine = i
		bs, berr := BuildBoardSide(rc.BoardCfg, acfg)
		if berr != nil {
			abort()
			return res, berr
		}
		if i == 0 {
			// Register the pulse windows and their counting DSRs before
			// the board attaches to its link.
			for p := 0; p < fc.PulseDevices; p++ {
				pdev, derr := bs.Board.NewRemoteDev(fmt.Sprintf("/dev/pulse%d", p), PulseBase(p), PulseStride, nil)
				if derr != nil {
					abort()
					return res, derr
				}
				p := p
				bs.Board.K.AttachInterrupt(int(PulseIRQ(p)), nil, func() {
					if pdev.PeekShadow(0) != 0 {
						pulseSeen[p]++
					}
				})
			}
		}
		sides = append(sides, bs)
		partyIdx := len(parties)
		name := fmt.Sprintf("board%d", i)
		if fc.InProcBoards {
			bf := board.NewFederate(name, bs.Board)
			boardFeds = append(boardFeds, bf)
			parties = append(parties, federation.Party{Fed: bf})
		} else {
			hwBase, boardBase := tr.HW, tr.Board
			tr = Transports{} // consumed
			if hwBase == nil {
				var derr error
				switch rc.Transport {
				case TransportTCP:
					hwBase, boardBase, derr = dialSelf()
				case TransportUDS:
					hwBase, boardBase, derr = dialSelfUDS()
				case TransportShm:
					hwBase, boardBase, derr = cosim.NewShmPair(cosim.ShmConfig{})
				default:
					hwBase, boardBase = cosim.NewInProcPair(4096)
				}
				if derr != nil {
					abort()
					return res, derr
				}
			}
			if k, ok := baseTransportKind(hwBase); ok && i == 0 {
				res.TransportKind = k
			}
			stack := rc.stack().With(fc.LinkStack...)
			hwT, hwClose := cosim.BuildStack(hwBase, stack)
			boardT, boardClose := cosim.BuildStack(boardBase, stack.Peer())
			closers = append(closers, hwClose, boardClose)
			if rc.Trace != nil {
				hwT = cosim.NewTraceTransport(hwT, rc.Trace)
				boardT = cosim.NewTraceTransport(boardT, rc.Trace)
			}
			if i == 0 {
				link0 = hwT
			}
			ep := cosim.NewHWEndpoint(hwT, rc.Mode)
			bep := cosim.NewBoardEndpoint(boardT)
			if rc.Obs != nil {
				if fc.Boards == 1 {
					// The two-party topology keeps the plain side labels.
					ep.Observe(rc.Obs)
					bep.Observe(rc.Obs)
				} else {
					ep.ObserveAs(rc.Obs, name)
					bep.ObserveAs(rc.Obs, name+":board")
				}
			}
			bs.Dev.Attach(bep)
			pf := cosim.NewProcFederate(name, ep)
			procFeds = append(procFeds, pf)
			parties = append(parties, federation.Party{Fed: pf})
			go func(bs *BoardSide) { boardDone <- bs.Board.Run(bep) }(bs)
			wired++
		}
		links = append(links,
			federation.Link{From: 0, To: partyIdx, Base: EngineBase(i), Size: EngineStride, IRQs: []uint8{EngineIRQ(i)}},
			federation.Link{From: partyIdx, To: 0, Base: EngineBase(i), Size: EngineStride})
		if i == 0 {
			for p := 0; p < fc.PulseDevices; p++ {
				links = append(links, federation.Link{
					From: 1 + p, To: partyIdx,
					Base: PulseBase(p), Size: PulseStride,
					IRQs: []uint8{PulseIRQ(p)},
				})
			}
		}
	}

	mgr, err := federation.New(federation.Config{
		Parties:    parties,
		Links:      links,
		TSync:      rc.TSync,
		Horizon:    rc.budget(),
		Adaptive:   rc.Adaptive,
		MaxQuantum: rc.MaxQuantum,
		StopEarly:  tb.Finished,
	})
	if err != nil {
		abort()
		return res, err
	}

	// Context cancellation tears the wire stacks down, unblocking any
	// board waiting on its link; the cause is reported as the run error.
	if ctx == nil {
		ctx = context.Background()
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			closeAll()
		case <-watchDone:
		}
	}()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = fmt.Errorf("router: run canceled: %w", context.Cause(ctx))
		}
	}()

	start := time.Now()
	fedStats, err := mgr.Run(ctx)
	res.Wall = time.Since(start)
	res.Fed = fedStats
	if err != nil {
		closeAll()
		for j := 0; j < wired; j++ {
			<-boardDone
		}
		return res, fmt.Errorf("router: federation: %w", err)
	}
	closeAll()
	for j := 0; j < wired; j++ {
		if berr := <-boardDone; berr != nil {
			return res, fmt.Errorf("router: board side: %w", berr)
		}
	}

	res.HW = hwFed.Stats()
	res.HW.SyncEvents, res.HW.SyncsElided, res.HW.LastBoardCy = fedStats.Syncs, fedStats.Elided, fedStats.PeerCycle
	res.Router = tb.Router.Stats()
	res.Consumers = tb.ConsumerTotals()
	res.Generated = tb.Generated()
	res.SimCycles = res.HW.Cycles
	var overruns, mboxDrops uint64
	for i, bs := range sides {
		st := bs.App.Stats()
		res.Apps = append(res.Apps, st)
		overruns += st.Overruns
		mboxDrops += st.MboxDrops
		var cy, sw uint64
		if fc.InProcBoards {
			cy, sw = boardFeds[i].BoardTime()
		} else {
			cy, sw = procFeds[i].BoardTime()
		}
		res.BoardCycles = append(res.BoardCycles, cy)
		if i == 0 {
			res.RunResult.BoardCycles, res.BoardSWTicks = cy, sw
			res.App = st
			res.Board = bs.Board.Stats()
		}
	}
	if len(procFeds) > 0 {
		res.Link = *procFeds[0].Metrics()
		res.Batch = cosim.BatchStatsOf(link0)
	}
	for _, pd := range pulses {
		res.PulseSent = append(res.PulseSent, pd.count)
	}
	res.PulseSeen = pulseSeen
	if res.Generated > 0 {
		res.Accuracy = float64(res.Router.Forwarded) / float64(res.Generated)
	}
	res.Conservation = tb.CheckConservation(overruns, mboxDrops)
	return res, nil
}

// RunFederation is the federated entry point: Run with a WithFederation
// option, returning the extended FederationResult. Options are applied
// to DefaultRunConfig as in Run; fc supplies the topology.
func RunFederation(ctx context.Context, fc FederationConfig, opts ...Option) (FederationResult, error) {
	rc := DefaultRunConfig()
	for _, o := range opts {
		o(&rc)
	}
	rc.Federation = &fc
	return runFederation(ctx, rc, Transports{})
}
