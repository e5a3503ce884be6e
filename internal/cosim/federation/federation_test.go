package federation

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
)

// fakeParty is a scripted federate for manager unit tests: an eager
// variant emits one sequenced write every emitEvery-th quantum, a lazy
// variant records what it is delivered and when.
type fakeParty struct {
	name  string
	cur   cosim.SimTime
	la    uint64
	halt  cosim.SimTime // Done once reached; 0 means never
	tsync uint64

	// producer script (eager parties)
	emitEvery uint64 // emit on every n-th quantum boundary; 0 = silent
	addr      uint32
	seq       uint32
	out       []hdlsim.DataMsg

	// consumer record (lazy parties)
	got      []uint32
	gotAt    []cosim.SimTime
	steps    int
	finished bool
}

func (f *fakeParty) Name() string { return f.name }

func (f *fakeParty) Step(until cosim.SimTime) (cosim.SimTime, error) {
	if f.halt != 0 && until > f.halt {
		until = f.halt
	}
	if f.emitEvery > 0 && f.tsync > 0 {
		q := uint64(until) / f.tsync
		if q > 0 && q%f.emitEvery == 0 {
			f.seq++
			f.out = append(f.out, hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: f.addr, Words: []uint32{f.seq}})
		}
	}
	f.cur = until
	f.steps++
	return until, nil
}

func (f *fakeParty) Exchange(in []hdlsim.DataMsg) ([]hdlsim.DataMsg, error) {
	for _, m := range in {
		if len(m.Words) != 1 {
			return nil, fmt.Errorf("fake %s: malformed delivery", f.name)
		}
		f.got = append(f.got, m.Words[0])
		f.gotAt = append(f.gotAt, f.cur)
	}
	out := f.out
	f.out = nil
	return out, nil
}

func (f *fakeParty) Lookahead() uint64 { return f.la }

func (f *fakeParty) Done() bool { return f.halt != 0 && f.cur >= f.halt }

func (f *fakeParty) Finish(at cosim.SimTime) error {
	f.finished = true
	return nil
}

// splitParty is a granted fake that implements cosim.SplitStepper and
// cosim.BoardClock: it records the lookahead each grant carries and
// reports a board cycle of cycleMul×cur+cycleOff.
type splitParty struct {
	fakeParty
	cycleMul, cycleOff uint64
	grants             []uint64 // lookahead carried by each BeginStep
}

func (f *splitParty) BeginStep(until cosim.SimTime, lookahead uint64) error {
	f.grants = append(f.grants, lookahead)
	return nil
}

func (f *splitParty) BoardTime() (cycle, swTick uint64) {
	return f.cycleMul*uint64(f.cur) + f.cycleOff, 0
}

// TestGrantLookahead: each grant carries the minimum promise of every
// other party when the federation is adaptive and NoLookahead when it is
// not, and the schedule counters (Syncs, Elided, PeerCycle) match the
// boundaries the promises allow.
func TestGrantLookahead(t *testing.T) {
	const tsync, quanta = 100, 9
	for _, adaptive := range []bool{true, false} {
		t.Run(fmt.Sprintf("adaptive=%v", adaptive), func(t *testing.T) {
			// The device promises 350 ticks, b1 250 and b2 300, so b1's
			// grant carries min(350, 300) and b2's min(350, 250); b1's own
			// smaller promise must not leak into its grant.
			dev := &fakeParty{name: "dev", la: 350, tsync: tsync}
			b1 := &splitParty{fakeParty: fakeParty{name: "b1", la: 250}, cycleMul: 3}
			b2 := &splitParty{fakeParty: fakeParty{name: "b2", la: 300}, cycleMul: 2, cycleOff: 7}
			tm, err := New(Config{
				Parties: []Party{{Fed: dev, Eager: true}, {Fed: b1}, {Fed: b2}},
				Links:   []Link{{From: 0, To: 1, Base: 0x100, Size: 0x10}, {From: 0, To: 2, Base: 0x200, Size: 0x10}},
				TSync:   tsync, Horizon: quanta * tsync, Adaptive: adaptive,
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := tm.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// Adaptive: the granted parties' minimum promise is 250, so
			// boundaries with 100 or 200 accumulated ticks are elided and
			// every third one (300, 600, 900) is a rendezvous.
			wantSyncs, wantElided, b1LA, b2LA := uint64(quanta), uint64(0), cosim.NoLookahead, cosim.NoLookahead
			if adaptive {
				wantSyncs, wantElided, b1LA, b2LA = 3, 6, 300, 250
			}
			if st.Syncs != wantSyncs || st.Elided != wantElided {
				t.Fatalf("%d syncs / %d elided, want %d / %d", st.Syncs, st.Elided, wantSyncs, wantElided)
			}
			// At the last rendezvous (900) b1 reports 2700 and b2 1807.
			if st.PeerCycle != 1807 {
				t.Fatalf("PeerCycle %d, want the slowest board's 1807", st.PeerCycle)
			}
			for _, c := range []struct {
				p    *splitParty
				want uint64
			}{{b1, b1LA}, {b2, b2LA}} {
				if uint64(len(c.p.grants)) != wantSyncs {
					t.Fatalf("%s saw %d grants, want %d", c.p.name, len(c.p.grants), wantSyncs)
				}
				for i, la := range c.p.grants {
					if la != c.want {
						t.Fatalf("%s grant %d carried lookahead %d, want %d (all: %v)", c.p.name, i, la, c.want, c.p.grants)
					}
				}
			}
		})
	}
}

// TestZeroLookaheadForcesPlainStepping: adaptive elongation is a
// federation-wide negotiation — a single party promising no lookahead
// (granted or eager) pins the whole federation to plain TSync
// rendezvous, while the same topology with generous promises elides
// every quiet boundary.
func TestZeroLookaheadForcesPlainStepping(t *testing.T) {
	const tsync, quanta = 100, 10
	build := func(eagerLA, lazyLA1, lazyLA2 uint64) (*TimeManager, []*fakeParty) {
		ps := []*fakeParty{
			{name: "dev", la: eagerLA, tsync: tsync},
			{name: "b1", la: lazyLA1},
			{name: "b2", la: lazyLA2},
		}
		tm, err := New(Config{
			Parties: []Party{{Fed: ps[0], Eager: true}, {Fed: ps[1]}, {Fed: ps[2]}},
			Links:   []Link{{From: 0, To: 1, Base: 0x100, Size: 0x10}, {From: 0, To: 2, Base: 0x200, Size: 0x10}},
			TSync:   tsync, Horizon: quanta * tsync, Adaptive: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tm, ps
	}
	unbounded := cosim.UnboundedLookahead

	// Control: every party promises unbounded lookahead, no traffic —
	// every boundary is elided and one final rendezvous settles the run.
	tm, _ := build(unbounded, unbounded, unbounded)
	st, err := tm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Elided != quanta || st.Syncs != 1 {
		t.Fatalf("generous promises: %d elided / %d syncs, want %d / 1", st.Elided, st.Syncs, quanta)
	}

	// One granted party with zero lookahead: no boundary may be elided.
	tm, _ = build(unbounded, unbounded, cosim.NoLookahead)
	if st, err = tm.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Elided != 0 || st.Syncs != quanta {
		t.Fatalf("zero-lookahead board: %d elided / %d syncs, want 0 / %d", st.Elided, st.Syncs, quanta)
	}

	// A zero-lookahead eager party pins it just the same.
	tm, _ = build(cosim.NoLookahead, unbounded, unbounded)
	if st, err = tm.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Elided != 0 || st.Syncs != quanta {
		t.Fatalf("zero-lookahead device: %d elided / %d syncs, want 0 / %d", st.Elided, st.Syncs, quanta)
	}
}

// TestSlowPartyCannotReorderEvents is the adversarial-ordering check:
// one granted party promising a huge lookahead stretches the quanta
// (elisions), another produces traffic on an irregular schedule — yet
// the consumer observes every sequence number exactly once, in emission
// order, and never before the producer's clock reached the emission
// point. Run under -race this also proves the manager needs no hidden
// synchronization: everything happens on one goroutine.
func TestSlowPartyCannotReorderEvents(t *testing.T) {
	const tsync, quanta = 100, 60
	producer := &fakeParty{name: "producer", la: cosim.UnboundedLookahead, tsync: tsync, emitEvery: 3, addr: 0x100}
	consumer := &fakeParty{name: "consumer", la: 5 * tsync}
	slow := &fakeParty{name: "slow", la: cosim.UnboundedLookahead}
	tm, err := New(Config{
		Parties: []Party{{Fed: producer, Eager: true}, {Fed: consumer}, {Fed: slow}},
		Links: []Link{
			{From: 0, To: 1, Base: 0x100, Size: 0x10},
			{From: 0, To: 2, Base: 0x200, Size: 0x10},
		},
		TSync: tsync, Horizon: quanta * tsync, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Elided == 0 {
		t.Fatal("schedule never stretched — the test exercises nothing")
	}
	if producer.seq == 0 {
		t.Fatal("producer emitted nothing")
	}
	if len(consumer.got) != int(producer.seq) {
		t.Fatalf("consumer saw %d of %d events", len(consumer.got), producer.seq)
	}
	for i, v := range consumer.got {
		if v != uint32(i+1) {
			t.Fatalf("delivery %d carries seq %d — events reordered, lost or duplicated (%v)", i, v, consumer.got)
		}
		// Emission i+1 happened at quantum 3*(i+1); the consumer's local
		// clock at delivery (its last granted time) must never have
		// passed that point — a conservative schedule cannot deliver
		// into the consumer's past.
		if emitAt := cosim.SimTime(3 * uint64(i+1) * tsync); consumer.gotAt[i] > emitAt {
			t.Fatalf("seq %d delivered with consumer clock %d past its emission at %d", v, consumer.gotAt[i], emitAt)
		}
	}
	if !consumer.finished || !producer.finished || !slow.finished {
		t.Fatal("not every party was finished")
	}
}

// TestTrafficForcesRendezvous: however generous every promise is, routed
// traffic waiting for a granted party forces the next boundary to be a
// real rendezvous (the a-posteriori check behind elongation soundness).
func TestTrafficForcesRendezvous(t *testing.T) {
	const tsync, quanta = 100, 12
	producer := &fakeParty{name: "producer", la: cosim.UnboundedLookahead, tsync: tsync, emitEvery: 4, addr: 0x100}
	consumer := &fakeParty{name: "consumer", la: cosim.UnboundedLookahead}
	tm, err := New(Config{
		Parties: []Party{{Fed: producer, Eager: true}, {Fed: consumer}},
		Links:   []Link{{From: 0, To: 1, Base: 0x100, Size: 0x10}},
		TSync:   tsync, Horizon: quanta * tsync, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Emissions at quanta 4, 8, 12 must each close their boundary.
	if st.Syncs < 3 {
		t.Fatalf("%d rendezvous for 3 traffic-bearing boundaries", st.Syncs)
	}
	if len(consumer.got) != 3 {
		t.Fatalf("consumer saw %d of 3 events", len(consumer.got))
	}
}

// TestEagerHaltMidQuantum: a clock-driving party stopping inside a
// quantum ends the run there, and the final partial grant settles every
// granted party at exactly the halt time.
func TestEagerHaltMidQuantum(t *testing.T) {
	const tsync = 100
	dev := &fakeParty{name: "dev", la: cosim.UnboundedLookahead, tsync: tsync, halt: 250}
	brd := &fakeParty{name: "board", la: cosim.UnboundedLookahead}
	tm, err := New(Config{
		Parties: []Party{{Fed: dev, Eager: true}, {Fed: brd}},
		Links:   []Link{{From: 0, To: 1, Base: 0, Size: 0x10}},
		TSync:   tsync, Horizon: 10 * tsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Now != 250 {
		t.Fatalf("federation time %d, want the halt point 250", st.Now)
	}
	if brd.cur != 250 {
		t.Fatalf("granted party settled at %d, want 250", brd.cur)
	}
}

// TestUnroutedEventFails: an emitted event no link covers is a topology
// bug and must fail the run loudly, not vanish.
func TestUnroutedEventFails(t *testing.T) {
	producer := &fakeParty{name: "producer", la: cosim.UnboundedLookahead, tsync: 100, emitEvery: 1, addr: 0x900}
	consumer := &fakeParty{name: "consumer", la: cosim.UnboundedLookahead}
	tm, err := New(Config{
		Parties: []Party{{Fed: producer, Eager: true}, {Fed: consumer}},
		Links:   []Link{{From: 0, To: 1, Base: 0x100, Size: 0x10}}, // 0x900 not covered
		TSync:   100, Horizon: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tm.Run(context.Background()); err == nil {
		t.Fatal("unrouted event did not fail the run")
	}
}

// TestConfigValidate rejects incoherent federations with actionable
// errors.
func TestConfigValidate(t *testing.T) {
	ok := func() Config {
		a := &fakeParty{name: "a"}
		b := &fakeParty{name: "b"}
		return Config{
			Parties: []Party{{Fed: a, Eager: true}, {Fed: b}},
			Links:   []Link{{From: 0, To: 1, Base: 0, Size: 0x10, IRQs: []uint8{3}}},
			TSync:   100, Horizon: 1000,
		}
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"one party", func(c *Config) { c.Parties = c.Parties[:1] }},
		{"zero tsync", func(c *Config) { c.TSync = 0 }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"nil federate", func(c *Config) { c.Parties[1].Fed = nil }},
		{"duplicate name", func(c *Config) { c.Parties[1].Fed = &fakeParty{name: "a"} }},
		{"link out of range", func(c *Config) { c.Links[0].To = 7 }},
		{"self link", func(c *Config) { c.Links[0].To = 0 }},
		{"empty link", func(c *Config) { c.Links[0] = Link{From: 0, To: 1} }},
		{"overlapping windows", func(c *Config) {
			c.Links = append(c.Links, Link{From: 0, To: 1, Base: 0x8, Size: 0x10})
		}},
		{"duplicate irq", func(c *Config) {
			c.Links = append(c.Links, Link{From: 0, To: 1, Base: 0x100, Size: 0x10, IRQs: []uint8{3}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := ok()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
			if _, err := New(c); err == nil {
				t.Fatal("New accepted an invalid config")
			}
		})
	}
}
