// Package federation coordinates K co-simulation federates under one
// conservative quantum clock — the paper's driver_simulate rendezvous
// (hdlsim.DriverSimulate ↔ HWEndpoint) generalized to N parties. It is
// the one synchronization engine behind router.Run: the paper's
// two-party setup is a K=2 federation of the router kernel and one
// board.
//
// The time manager distinguishes two party roles, mirroring the paper's
// master/slave quantum protocol:
//
//   - eager parties (device engines, cosim.SimFederate) drive the clock:
//     they step every TSync quantum and emit events as they simulate;
//   - granted parties (boards and external processes, board.Federate /
//     cosim.ProcFederate) freeze between rendezvous and advance in one
//     piece when the federation grants accumulated time.
//
// Quantum boundaries may be elided by lookahead negotiation: the decision
// (elideBoundary) takes the peer lookahead as the minimum over all
// granted parties and the local lookahead as the minimum over all eager
// parties, plus the a-posteriori no-routed-traffic check. Without
// elision a K=2 federation sends, through cosim.ProcFederate,
// byte-identical wire traffic to hdlsim.DriverSimulate at the same TSync.
//
// Events are exchanged only at boundaries and routed by explicit links
// (address windows for data, line numbers for interrupts), so the whole
// schedule is a deterministic function of the configuration. The package
// is held to the strict determinism lint tier: no wall-clock, no
// unseeded randomness, no goroutines, no map iteration.
package federation

import (
	"context"
	"fmt"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
)

// Party declares one federation member.
type Party struct {
	// Fed is the engine. Its Name must be unique within the federation.
	Fed cosim.Federate
	// Eager marks a clock-driving engine that steps every quantum; false
	// marks a granted party that advances only at rendezvous.
	Eager bool
}

// Link routes events from one party to another. Data events (writes,
// read requests/responses) emitted by From with an address inside
// [Base, Base+Size) are delivered to To; interrupt events on one of the
// IRQs lines likewise. A link is unidirectional — declare one per
// direction. Windows of links sharing a From must not overlap, and an
// IRQ line may appear on at most one link per From, so routing is
// unambiguous.
type Link struct {
	From, To int
	// Base/Size is the word-address window routed From→To; Size 0
	// declares an interrupt-only link.
	Base, Size uint32
	// IRQs lists the interrupt lines routed From→To.
	IRQs []uint8
}

// Config describes a federation: its parties, the event-routing
// topology, and the quantum clock. Validate rejects incoherent
// configurations with actionable errors, like router.RunConfig.Validate.
type Config struct {
	Parties []Party
	Links   []Link
	// TSync is the base quantum in grant ticks.
	TSync uint64
	// Horizon bounds the run in grant ticks.
	Horizon uint64
	// Adaptive enables lookahead-negotiated quantum elongation across
	// the whole federation (see elideBoundary); a single party
	// reporting cosim.NoLookahead pins the federation to plain TSync
	// stepping.
	Adaptive bool
	// MaxQuantum caps the elongated quantum when Adaptive is set; 0
	// means 64×TSync.
	MaxQuantum uint64
	// StopEarly, when non-nil, is consulted at every rendezvous; a true
	// return ends the run at that boundary (the
	// hdlsim.DriverConfig.StopEarly contract). It must be a pure
	// predicate of simulation state: with Adaptive set it is also polled
	// at elided boundaries, so the run ends at the same cycle it would
	// have without elongation.
	StopEarly func() bool
}

// Validate rejects incoherent federations up front.
func (c Config) Validate() error {
	if len(c.Parties) < 2 {
		return fmt.Errorf("federation: invalid Config: %d parties — a federation needs at least two, e.g. a device kernel and a board as router.Run builds", len(c.Parties))
	}
	if c.TSync == 0 {
		return fmt.Errorf("federation: invalid Config: TSync is 0, so the manager would never grant virtual time; set a quantum ≥ 1")
	}
	if c.Horizon == 0 {
		return fmt.Errorf("federation: invalid Config: Horizon is 0, so the run would end before any quantum; set the tick budget")
	}
	seen := make(map[string]int, len(c.Parties))
	for i, p := range c.Parties {
		if p.Fed == nil {
			return fmt.Errorf("federation: invalid Config: party %d has a nil Federate", i)
		}
		name := p.Fed.Name()
		if name == "" {
			return fmt.Errorf("federation: invalid Config: party %d has an empty name", i)
		}
		if j, dup := seen[name]; dup {
			return fmt.Errorf("federation: invalid Config: parties %d and %d share the name %q", j, i, name)
		}
		seen[name] = i
	}
	for i, l := range c.Links {
		if l.From < 0 || l.From >= len(c.Parties) || l.To < 0 || l.To >= len(c.Parties) {
			return fmt.Errorf("federation: invalid Config: link %d references party %d/%d outside [0,%d)", i, l.From, l.To, len(c.Parties))
		}
		if l.From == l.To {
			return fmt.Errorf("federation: invalid Config: link %d routes party %d to itself", i, l.From)
		}
		if l.Size == 0 && len(l.IRQs) == 0 {
			return fmt.Errorf("federation: invalid Config: link %d routes neither an address window nor an interrupt line", i)
		}
		for j := 0; j < i; j++ {
			o := c.Links[j]
			if o.From != l.From {
				continue
			}
			if l.Size > 0 && o.Size > 0 && l.Base < o.Base+o.Size && o.Base < l.Base+l.Size {
				return fmt.Errorf("federation: invalid Config: links %d and %d route overlapping windows from party %d", j, i, l.From)
			}
			for _, a := range l.IRQs {
				for _, b := range o.IRQs {
					if a == b {
						return fmt.Errorf("federation: invalid Config: links %d and %d both route IRQ %d from party %d", j, i, a, l.From)
					}
				}
			}
		}
	}
	return nil
}

// PartyStats counts one party's share of the federation schedule.
type PartyStats struct {
	Name string
	// Syncs counts rendezvous the party took part in; Elided counts
	// quantum boundaries skipped by adaptive elongation.
	Syncs, Elided uint64
	// EventsIn/EventsOut count routed events delivered to / collected
	// from the party.
	EventsIn, EventsOut uint64
	// Reached is the party's final local time.
	Reached cosim.SimTime
}

// Stats aggregates one federation run.
type Stats struct {
	// Now is the federation's final virtual time.
	Now cosim.SimTime
	// Quanta counts TSync boundaries passed; Syncs counts rendezvous;
	// Elided counts boundaries skipped by adaptive elongation
	// (Quanta = Syncs + Elided when the horizon is quantum-aligned).
	Quanta, Syncs, Elided uint64
	// PeerCycle is the slowest granted party's board cycle at the last
	// rendezvous (cosim.BoardClock), or the rendezvous time when no
	// party reports one — hdlsim.DriverStats.LastBoardCy of the
	// federation.
	PeerCycle uint64
	Parties   []PartyStats
}

// TimeManager is the hierarchical coordinator: it owns the federation's
// virtual clock and drives every federate from a single goroutine in a
// deterministic order.
type TimeManager struct {
	cfg   Config
	eager []int // party indices in config order
	lazy  []int
	inbox [][]hdlsim.DataMsg
	stats Stats
}

// New validates the configuration and builds a manager.
func New(cfg Config) (*TimeManager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tm := &TimeManager{cfg: cfg, inbox: make([][]hdlsim.DataMsg, len(cfg.Parties))}
	tm.stats.Parties = make([]PartyStats, len(cfg.Parties))
	for i, p := range cfg.Parties {
		tm.stats.Parties[i].Name = p.Fed.Name()
		if p.Eager {
			tm.eager = append(tm.eager, i)
		} else {
			tm.lazy = append(tm.lazy, i)
		}
	}
	return tm, nil
}

// Stats returns the schedule counters (complete after Run returns).
func (tm *TimeManager) Stats() Stats { return tm.stats }

// route distributes the events src emitted to their destinations'
// inboxes, by address window for data kinds and by line for interrupts.
func (tm *TimeManager) route(src int, out []hdlsim.DataMsg) error {
	tm.stats.Parties[src].EventsOut += uint64(len(out))
	for _, m := range out {
		dst := -1
		if m.Kind == hdlsim.DataInterrupt {
			for _, l := range tm.cfg.Links {
				if l.From != src {
					continue
				}
				for _, irq := range l.IRQs {
					if irq == m.IRQ {
						dst = l.To
						break
					}
				}
				if dst >= 0 {
					break
				}
			}
			if dst < 0 {
				return fmt.Errorf("federation: no link routes IRQ %d from party %q", m.IRQ, tm.stats.Parties[src].Name)
			}
		} else {
			for _, l := range tm.cfg.Links {
				if l.From == src && l.Size > 0 && m.Addr >= l.Base && m.Addr < l.Base+l.Size {
					dst = l.To
					break
				}
			}
			if dst < 0 {
				return fmt.Errorf("federation: no link window covers address %#x from party %q", m.Addr, tm.stats.Parties[src].Name)
			}
		}
		tm.inbox[dst] = append(tm.inbox[dst], m)
	}
	return nil
}

// deliver hands party i its pending inbox (and routes anything it had
// buffered, normally nothing at delivery points).
func (tm *TimeManager) deliver(i int) error {
	in := tm.inbox[i]
	tm.stats.Parties[i].EventsIn += uint64(len(in))
	out, err := tm.cfg.Parties[i].Fed.Exchange(in)
	tm.inbox[i] = tm.inbox[i][:0]
	if err != nil {
		return fmt.Errorf("federation: party %q exchange: %w", tm.stats.Parties[i].Name, err)
	}
	return tm.route(i, out)
}

// collect routes the events party i emitted during its last step.
func (tm *TimeManager) collect(i int) error {
	out, err := tm.cfg.Parties[i].Fed.Exchange(nil)
	if err != nil {
		return fmt.Errorf("federation: party %q exchange: %w", tm.stats.Parties[i].Name, err)
	}
	return tm.route(i, out)
}

// lazyTrafficPending reports whether any routed event awaits delivery to
// a granted party — the a-posteriori check that forces a rendezvous at
// the next boundary whatever the lookahead promises said.
func (tm *TimeManager) lazyTrafficPending() bool {
	for _, i := range tm.lazy {
		if len(tm.inbox[i]) > 0 {
			return true
		}
	}
	return false
}

// minLookaheadExcept folds the parties' promises, skipping index skip
// (-1 skips none) and restricting to the given index set.
func (tm *TimeManager) minLookahead(set []int, skip int) uint64 {
	min := cosim.UnboundedLookahead
	for _, i := range set {
		if i == skip {
			continue
		}
		if la := tm.cfg.Parties[i].Fed.Lookahead(); la < min {
			min = la
		}
	}
	return min
}

// grantLookahead is the promise carried to granted party j: the minimum
// over every other party.
func (tm *TimeManager) grantLookahead(j int) uint64 {
	la := tm.minLookahead(tm.eager, j)
	if l2 := tm.minLookahead(tm.lazy, j); l2 < la {
		la = l2
	}
	return la
}

// eagerStopped reports whether any clock-driving party halted itself.
func (tm *TimeManager) eagerStopped() bool {
	for _, i := range tm.eager {
		if tm.cfg.Parties[i].Fed.Done() {
			return true
		}
	}
	return false
}

// rendezvous grants every granted party the federation time up to until,
// overlapping wire parties' quanta (grants first, acknowledgements
// second), routes the collected traffic, and records the slowest board
// clock as Stats.PeerCycle.
func (tm *TimeManager) rendezvous(until cosim.SimTime) error {
	for _, j := range tm.lazy {
		f := tm.cfg.Parties[j].Fed
		if err := tm.deliver(j); err != nil {
			return err
		}
		if ss, ok := f.(cosim.SplitStepper); ok {
			la := cosim.NoLookahead
			if tm.cfg.Adaptive {
				la = tm.grantLookahead(j)
			}
			if err := ss.BeginStep(until, la); err != nil {
				return fmt.Errorf("federation: party %q grant: %w", tm.stats.Parties[j].Name, err)
			}
		}
	}
	peerCycle := uint64(until)
	haveClock := false
	for _, j := range tm.lazy {
		f := tm.cfg.Parties[j].Fed
		if _, err := f.Step(until); err != nil {
			return fmt.Errorf("federation: party %q step: %w", tm.stats.Parties[j].Name, err)
		}
		if err := tm.collect(j); err != nil {
			return err
		}
		tm.stats.Parties[j].Syncs++
		tm.stats.Parties[j].Reached = until
		if bc, ok := f.(cosim.BoardClock); ok {
			cy, _ := bc.BoardTime()
			if !haveClock || cy < peerCycle {
				peerCycle = cy
			}
			haveClock = true
		}
	}
	for _, i := range tm.eager {
		tm.stats.Parties[i].Syncs++
	}
	tm.stats.Syncs++
	tm.stats.PeerCycle = peerCycle
	return nil
}

// recordElision books an elided boundary on every party.
func (tm *TimeManager) recordElision() {
	for i := range tm.stats.Parties {
		tm.stats.Parties[i].Elided++
	}
	tm.stats.Elided++
}

// Run executes the federation to its horizon (or until a clock-driving
// party halts, or StopEarly fires at a rendezvous) and finishes every
// party. It generalizes the hdlsim.DriverSimulate schedule: eager
// parties step every TSync quantum, boundaries may be elided under the
// elideBoundary predicate, granted parties advance in one piece at each
// rendezvous, and a final partial grant settles any remainder. Cancelling ctx stops the run at the next quantum boundary
// with the context's cause.
func (tm *TimeManager) Run(ctx context.Context) (Stats, error) {
	tsync := cosim.SimTime(tm.cfg.TSync)
	maxQ := effectiveMaxQuantum(tm.cfg.TSync, tm.cfg.MaxQuantum)
	horizon := cosim.SimTime(tm.cfg.Horizon)
	var cur, granted, boundary cosim.SimTime
	for cur < horizon && !tm.eagerStopped() {
		if ctx != nil && ctx.Err() != nil {
			return tm.finishStats(cur), fmt.Errorf("federation: run canceled: %w", context.Cause(ctx))
		}
		target := cur + tsync
		if target > horizon {
			target = horizon
		}
		reached := target
		for _, i := range tm.eager {
			if err := tm.deliver(i); err != nil {
				return tm.finishStats(cur), err
			}
			r, err := tm.cfg.Parties[i].Fed.Step(target)
			if err != nil {
				return tm.finishStats(cur), fmt.Errorf("federation: party %q step: %w", tm.stats.Parties[i].Name, err)
			}
			if err := tm.collect(i); err != nil {
				return tm.finishStats(cur), err
			}
			if r < reached {
				reached = r
			}
		}
		cur = reached
		if cur < target {
			// A clock-driving party halted mid-quantum; the final
			// partial grant below settles the remainder.
			break
		}
		if cur-boundary >= tsync {
			tm.stats.Quanta++
			acc := uint64(cur - granted)
			stopping := tm.cfg.StopEarly != nil && tm.cfg.StopEarly()
			if tm.cfg.Adaptive && elideBoundary(acc, tm.cfg.TSync, maxQ,
				tm.minLookahead(tm.lazy, -1), tm.minLookahead(tm.eager, -1),
				tm.lazyTrafficPending(), stopping) {
				boundary = cur
				tm.recordElision()
			} else {
				if err := tm.rendezvous(cur); err != nil {
					return tm.finishStats(cur), err
				}
				granted, boundary = cur, cur
				if stopping {
					break
				}
			}
		}
	}
	if cur > granted {
		if err := tm.rendezvous(cur); err != nil {
			return tm.finishStats(cur), err
		}
		granted = cur
	}
	var firstErr error
	for i, p := range tm.cfg.Parties {
		if err := p.Fed.Finish(cur); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("federation: party %q finish: %w", tm.stats.Parties[i].Name, err)
		}
	}
	return tm.finishStats(cur), firstErr
}

// defaultMaxQuantumFactor scales TSync into the default MaxQuantum cap.
const defaultMaxQuantumFactor = 64

// effectiveMaxQuantum resolves a Config.MaxQuantum value against its
// TSync: 0 defaults to 64×TSync (saturating), and the result is clamped
// up to at least TSync.
func effectiveMaxQuantum(tsync, maxQuantum uint64) uint64 {
	maxQ := maxQuantum
	if maxQ == 0 {
		maxQ = tsync * defaultMaxQuantumFactor
		if maxQ/defaultMaxQuantumFactor != tsync { // overflow
			maxQ = cosim.UnboundedLookahead
		}
	}
	if maxQ < tsync {
		maxQ = tsync
	}
	return maxQ
}

// elideBoundary is the conservative-elision predicate: a TSync boundary
// may be skipped exactly when (a) no traffic awaits delivery to a granted
// party — the a-posteriori check that guarantees bit-identical results
// even when a lookahead promise was wrong, (b) the accumulated grant acc
// stays within the cap with room for one more quantum, (c) acc is
// strictly inside the granted parties' promised lookahead (strict,
// because an event exactly at the boundary must see its own rendezvous),
// (d) no eager party expects to emit within the next quantum, and (e)
// the run is not stopping at this boundary.
func elideBoundary(acc, tsync, maxQ, peerLookahead, localLookahead uint64, trafficPending, stopping bool) bool {
	return !trafficPending &&
		acc <= maxQ-tsync &&
		acc < peerLookahead &&
		localLookahead >= tsync &&
		!stopping
}

// finishStats stamps the final clock into the stats snapshot.
func (tm *TimeManager) finishStats(now cosim.SimTime) Stats {
	tm.stats.Now = now
	for _, i := range tm.eager {
		tm.stats.Parties[i].Reached = now
	}
	return tm.stats
}
