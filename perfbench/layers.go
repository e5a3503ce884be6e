package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/board"
	"repro/internal/cosim"
	"repro/internal/farm"
	"repro/internal/hdlsim"
	"repro/internal/router"
)

// selfSumTolerance bounds how far the HW goroutine's parts (hdlsim self
// time, each stack layer's self time, rendezvous wait) may miss its wall
// time, as a share of that wall time.
const selfSumTolerance = 0.01

// spanCap is how many spans each of the first four traced sessions keeps
// for the span file; later sessions only feed the aggregates.
const spanCap = 10000

// layerTotals accumulates the traced sessions of one run, and the
// untraced sessions measured beside them.
type layerTotals struct {
	tracers           []*tracer
	attempted, failed int
	errs              []error

	traced             int // traced sessions that passed every check
	cycles, boundaries uint64
	hwSelf, boardSelf  int64            // ns outside the stack, per side
	layerSelf          [numLayers]int64 // both endpoint goroutines
	hwLayerSelf        [numLayers]int64 // HW goroutine only
	hwWait, boardWait  int64
	sends, sendNs      int64
	sendBytes          int64
	sessionFrames      uint64
	retransmits        uint64
	injured            uint64
	batchMsgs          uint64
	batchFrames        uint64
	elided             uint64
	drv                hdlsim.DriverStats
	brd                board.Stats
	tracedWall         time.Duration
	untracedWall       time.Duration

	// Untraced process use, for the CPU and GC ratios.
	untraced      int
	cpu, cpuWall  time.Duration
	gcs           uint32
	fleetSessions int
	fleetOverhead float64 // ms, summed over fleet sessions
	placements    uint64
	retries       uint64
}

func (lt *layerTotals) fail(err error) {
	lt.failed++
	if len(lt.errs) < 5 {
		lt.errs = append(lt.errs, err)
	}
}

// pair runs spec once untraced through router.Run's own stack, then once
// with the benchmark's shimmed stack, and checks that both simulate the
// same thing. With countUsage, the untraced run's CPU time and GC cycles
// feed the process ratios.
func (lt *layerTotals) pair(ctx context.Context, spec farm.SessionSpec, want fingerprint, id uint64, countUsage bool) error {
	rc, err := spec.RunConfig()
	if err != nil {
		return err
	}

	lt.attempted++
	u0 := readUsage()
	ures, err := runSpec(ctx, spec)
	u1 := readUsage()
	if err != nil {
		lt.fail(fmt.Errorf("untraced: %w", err))
		return nil
	}
	lt.untracedWall += ures.Wall
	if countUsage {
		lt.untraced++
		lt.cpu += u1.cpu - u0.cpu
		lt.cpuWall += u1.wall.Sub(u0.wall)
		lt.gcs += u1.gcs - u0.gcs
	}
	if got := fingerprintOf(ures); got != want {
		lt.fail(fmt.Errorf("untraced fingerprint %+v, want %+v", got, want))
		return nil
	}

	lt.attempted++
	keep := 0
	if len(lt.tracers) < 4 {
		keep = spanCap
	}
	t := newTracer(id, keep)
	tres, hwS, boardS, err := runTraced(ctx, rc, t)
	if err != nil {
		lt.fail(fmt.Errorf("traced: %w", err))
		return nil
	}
	if keep > 0 {
		lt.tracers = append(lt.tracers, t)
	}
	if err := checkTraced(rc, want, ures, tres, hwS, t); err != nil {
		lt.fail(err)
		return nil
	}

	lt.traced++
	lt.cycles += tres.SimCycles
	lt.boundaries += want.boundaries()
	lt.tracedWall += tres.Wall
	lt.hwSelf += int64(tres.Wall) - t.hw.inStack.Load()
	lt.boardSelf += (t.board.last.Load() - t.board.first.Load()) - t.board.inStack.Load()
	for _, side := range []*sideTrace{t.hw, t.board} {
		for l := 0; l < numLayers; l++ {
			lt.layerSelf[l] += side.self[l].Load()
		}
		lt.sends += side.sends.Load()
		lt.sendNs += side.sendNs.Load()
		lt.sendBytes += side.sendBytes.Load()
		lt.sessionFrames += uint64(side.sessionFrames.Load())
	}
	for l := 0; l < numLayers; l++ {
		lt.hwLayerSelf[l] += t.hw.self[l].Load()
	}
	lt.hwWait += t.hw.wait.Load()
	lt.boardWait += t.board.wait.Load()
	for _, st := range []tracedStack{hwS, boardS} {
		if st.session != nil {
			lt.retransmits += st.session.LinkStats().Retransmits
		}
		if st.chaos != nil {
			lt.injured += st.chaos.ChaosStats().Injured()
		}
		if st.batch != nil {
			bs := st.batch.BatchStats()
			lt.batchMsgs += bs.Batched + bs.Bypassed
			lt.batchFrames += bs.Flushes + bs.Bypassed
		}
	}
	lt.elided += tres.HW.SyncsElided
	addDriver(&lt.drv, tres.HW)
	addBoard(&lt.brd, tres.Board)
	return nil
}

// runTraced builds both sides' stacks with shims between the layers and
// hands their tops to router.Run with the config's stack fields cleared,
// so Run's own driver runs unchanged over the benchmark's stack.
func runTraced(ctx context.Context, rc router.RunConfig, t *tracer) (router.RunResult, tracedStack, tracedStack, error) {
	hwB, boardB, err := basePair(rc.Transport)
	if err != nil {
		return router.RunResult{}, tracedStack{}, tracedStack{}, err
	}
	sc := cosim.StackConfig{Delay: rc.LinkDelay, Chaos: rc.Chaos, Session: rc.Resilience, Batch: rc.Batch}
	hwS, err := buildTracedStack(hwB, sc, t.hw)
	if err != nil {
		hwB.Close()
		boardB.Close()
		return router.RunResult{}, tracedStack{}, tracedStack{}, err
	}
	boardS, err := buildTracedStack(boardB, sc.Peer(), t.board)
	if err != nil {
		hwS.top.Close()
		boardB.Close()
		return router.RunResult{}, tracedStack{}, tracedStack{}, err
	}
	trc := rc
	trc.LinkDelay, trc.Chaos, trc.Resilience, trc.Batch = 0, nil, nil, false
	res, err := router.Run(ctx, router.Transports{HW: hwS.top, Board: boardS.top}, router.WithConfig(trc))
	if err == nil {
		err = res.Conservation
	}
	return res, hwS, boardS, err
}

// checkTraced verifies that tracing changed nothing simulated, that the
// shims kept router.Run's probes seeing through the stack, and that the
// HW goroutine's parts add up to its wall time.
func checkTraced(rc router.RunConfig, want fingerprint, ures, tres router.RunResult, hwS tracedStack, t *tracer) error {
	if got := fingerprintOf(tres); got != want {
		return fmt.Errorf("traced fingerprint %+v, want %+v", got, want)
	}
	if tres.HW != ures.HW || tres.Board != ures.Board || tres.Batch != ures.Batch {
		return fmt.Errorf("traced counters differ: driver %+v/%+v board %+v/%+v batch %+v/%+v",
			tres.HW, ures.HW, tres.Board, ures.Board, tres.Batch, ures.Batch)
	}
	if tres.TransportKind != rc.Transport {
		return fmt.Errorf("BaseTransportName through the shims reports %v, want %v", tres.TransportKind, rc.Transport)
	}
	if hwS.batch != nil && tres.Batch != hwS.batch.BatchStats() {
		return fmt.Errorf("BatchStatsOf through the shims reports %+v, want %+v", tres.Batch, hwS.batch.BatchStats())
	}
	if hwS.chaos != nil && hwS.chaos.ChaosStats().Injured() > 0 && tres.Link.Link.FramesInjured == 0 {
		return fmt.Errorf("link-stats harvest through the shims lost the chaos layer's %d injuries", hwS.chaos.ChaosStats().Injured())
	}
	wall := int64(tres.Wall)
	hdl := wall - t.hw.inStack.Load()
	sum := hdl + t.hw.wait.Load()
	for l := 0; l < numLayers; l++ {
		v := t.hw.self[l].Load()
		if v < 0 {
			return fmt.Errorf("negative %s self time on the HW goroutine", layerNames[l])
		}
		sum += v
	}
	if hdl < 0 || math.Abs(float64(sum-wall)) > selfSumTolerance*float64(wall) {
		return fmt.Errorf("HW goroutine parts sum to %dns (hdlsim %dns), wall %dns", sum, hdl, wall)
	}
	return nil
}

func addDriver(dst *hdlsim.DriverStats, s hdlsim.DriverStats) {
	dst.Cycles += s.Cycles
	dst.SyncEvents += s.SyncEvents
	dst.DataIn += s.DataIn
	dst.DataOut += s.DataOut
	dst.Interrupts += s.Interrupts
	dst.SyncsElided += s.SyncsElided
}

func addBoard(dst *board.Stats, s board.Stats) {
	dst.Grants += s.Grants
	dst.TicksGranted += s.TicksGranted
	dst.IRQsDelivered += s.IRQsDelivered
	dst.WriteBlocks += s.WriteBlocks
	dst.ReadResps += s.ReadResps
}

func (lt *layerTotals) spansKept() (n int) {
	for _, t := range lt.tracers {
		n += len(t.spans)
	}
	return n
}

func (lt *layerTotals) spansDropped() (n int) {
	for _, t := range lt.tracers {
		n += t.dropped
	}
	return n
}

// perLayer lists the per-layer metrics in output order; BENCHMARK.json
// declares the same names and units.
var perLayer = []struct{ name, unit string }{
	{"hdlsim.self_ns_per_cycle", "ns"},
	{"board.self_ns_per_cycle", "ns"},
	{"transport.send_ns_per_boundary", "ns"},
	{"transport.frames_per_boundary", "count"},
	{"transport.bytes_per_boundary", "B"},
	{"rendezvous.wait_ns_per_boundary", "ns"},
	{"board.grant_wait_ns_per_boundary", "ns"},
	{"process.cpu_per_wall", "s/s"},
	{"batch.self_ns_per_boundary", "ns"},
	{"batch.msgs_per_frame", "count"},
	{"session.self_ns_per_boundary", "ns"},
	{"session.retransmits", "count"},
	{"session.useful_frac", "frac"},
	{"chaos.frames_injured", "count"},
	{"adaptive.elided_frac", "frac"},
	{"fleet.overhead_ms", "ms"},
	{"fleet.placements", "count"},
	{"fleet.retries", "count"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_frac", "frac"},
	{"hdlsim.cycles", "count"},
	{"hdlsim.sync_events", "count"},
	{"hdlsim.syncs_elided", "count"},
	{"hdlsim.data_in", "count"},
	{"hdlsim.data_out", "count"},
	{"hdlsim.interrupts", "count"},
	{"board.grants", "count"},
	{"board.ticks_granted", "count"},
	{"board.irqs_delivered", "count"},
	{"board.write_blocks", "count"},
	{"board.read_resps", "count"},
}

// values computes every per-layer metric. Time shares are per simulated
// HDL cycle or per T_sync boundary crossed; counts are per session (the
// mean over the traced sessions, or over the fleet sessions for fleet.*).
// A metric whose layer the workload does not use reads 0.
func (lt *layerTotals) values() map[string]float64 {
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	cyc, bnd, n := float64(lt.cycles), float64(lt.boundaries), float64(lt.traced)
	return map[string]float64{
		"hdlsim.self_ns_per_cycle":         per(float64(lt.hwSelf), cyc),
		"board.self_ns_per_cycle":          per(float64(lt.boardSelf), cyc),
		"transport.send_ns_per_boundary":   per(float64(lt.sendNs), bnd),
		"transport.frames_per_boundary":    per(float64(lt.sends), bnd),
		"transport.bytes_per_boundary":     per(float64(lt.sendBytes), bnd),
		"rendezvous.wait_ns_per_boundary":  per(float64(lt.hwWait), bnd),
		"board.grant_wait_ns_per_boundary": per(float64(lt.boardWait), bnd),
		"process.cpu_per_wall":             per(lt.cpu.Seconds(), lt.cpuWall.Seconds()),
		"batch.self_ns_per_boundary":       per(float64(lt.layerSelf[layerBatch]), bnd),
		"batch.msgs_per_frame":             per(float64(lt.batchMsgs), float64(lt.batchFrames)),
		"session.self_ns_per_boundary":     per(float64(lt.layerSelf[layerSession]), bnd),
		"session.retransmits":              per(float64(lt.retransmits), n),
		"session.useful_frac":              per(float64(lt.sessionFrames)-float64(lt.retransmits), float64(lt.sessionFrames)),
		"chaos.frames_injured":             per(float64(lt.injured), n),
		"adaptive.elided_frac":             per(float64(lt.elided), bnd),
		"fleet.overhead_ms":                per(lt.fleetOverhead, float64(lt.fleetSessions)),
		"fleet.placements":                 per(float64(lt.placements), float64(lt.fleetSessions)),
		"fleet.retries":                    per(float64(lt.retries), float64(lt.fleetSessions)),
		"go.gc_cycles":                     per(float64(lt.gcs), float64(lt.untraced)),
		"trace.overhead_frac":              per(float64(lt.tracedWall), float64(lt.untracedWall)) - 1,
		"hdlsim.cycles":                    per(float64(lt.drv.Cycles), n),
		"hdlsim.sync_events":               per(float64(lt.drv.SyncEvents), n),
		"hdlsim.syncs_elided":              per(float64(lt.drv.SyncsElided), n),
		"hdlsim.data_in":                   per(float64(lt.drv.DataIn), n),
		"hdlsim.data_out":                  per(float64(lt.drv.DataOut), n),
		"hdlsim.interrupts":                per(float64(lt.drv.Interrupts), n),
		"board.grants":                     per(float64(lt.brd.Grants), n),
		"board.ticks_granted":              per(float64(lt.brd.TicksGranted), n),
		"board.irqs_delivered":             per(float64(lt.brd.IRQsDelivered), n),
		"board.write_blocks":               per(float64(lt.brd.WriteBlocks), n),
		"board.read_resps":                 per(float64(lt.brd.ReadResps), n),
	}
}

// report prints the outside-in split of the HW goroutine's wall time and
// the tracing overhead, for a reader of the run's log.
func (lt *layerTotals) report(out io.Writer) {
	wall := float64(lt.tracedWall)
	share := func(ns int64) float64 { return 100 * float64(ns) / wall }
	fmt.Fprintf(out, "traced sessions=%d attempted=%d failed=%d trace overhead=%+.1f%%\n",
		lt.traced, lt.attempted, lt.failed, 100*(float64(lt.tracedWall)/float64(lt.untracedWall)-1))
	if wall > 0 {
		fmt.Fprintf(out, "HW wall split: hdlsim %.1f%%", share(lt.hwSelf))
		for l := 0; l < numLayers; l++ {
			fmt.Fprintf(out, ", %s %.1f%%", layerNames[l], share(lt.hwLayerSelf[l]))
		}
		fmt.Fprintf(out, ", rendezvous wait %.1f%%; board self %.1f%% of wall\n", share(lt.hwWait), share(lt.boardSelf))
	}
	for _, err := range lt.errs {
		fmt.Fprintln(out, "session error:", err)
	}
}

func (lt *layerTotals) result() (result, error) {
	vals := lt.values()
	res := result{
		Correct:   lt.failed == 0,
		Attempted: lt.attempted,
		Failed:    lt.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("per-layer metric %s is missing or not finite", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	if lt.traced == 0 {
		res.Correct = false
	}
	return res, nil
}
