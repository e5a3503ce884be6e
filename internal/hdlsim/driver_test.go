package hdlsim

import (
	"testing"

	"repro/internal/sim"
)

// fakeEndpoint is a scriptable DriverEndpoint for kernel-level tests.
type fakeEndpoint struct {
	// incoming holds board→HW messages released one batch per PollData call.
	incoming [][]DataMsg
	sent     []DataMsg
	ints     []uint8
	syncs    []uint64 // granted ticks per sync
	boardCy  uint64
	finished bool
}

func (f *fakeEndpoint) PollData() []DataMsg {
	if len(f.incoming) == 0 {
		return nil
	}
	batch := f.incoming[0]
	f.incoming = f.incoming[1:]
	return batch
}

func (f *fakeEndpoint) SendData(m DataMsg) error {
	if m.Kind == DataInterrupt {
		f.ints = append(f.ints, m.IRQ)
	} else {
		f.sent = append(f.sent, m)
	}
	return nil
}
func (f *fakeEndpoint) Sync(ticks, hwCycle uint64) (uint64, error) {
	f.syncs = append(f.syncs, ticks)
	f.boardCy += ticks
	return f.boardCy, nil
}
func (f *fakeEndpoint) Finish(hwCycle uint64) error { f.finished = true; return nil }

func TestDriverInRouting(t *testing.T) {
	s := NewSimulator("t")
	_ = s.NewClock("clk", sim.NS(10))
	din := s.NewDriverIn("cmd", 0x10, 4)

	var got []RegWrite
	s.DriverProcess("drv", func() {
		for {
			w, ok := din.Pop()
			if !ok {
				break
			}
			got = append(got, w)
		}
	}, din)

	ep := &fakeEndpoint{incoming: [][]DataMsg{
		{{Kind: DataWrite, Addr: 0x10, Words: []uint32{7, 8}}},
	}}
	clk := s.clocks[0]
	if _, err := s.DriverSimulate(clk, ep, DriverConfig{TSync: 2, TotalCycles: 4}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (RegWrite{Addr: 0x10, Val: 7}) || got[1] != (RegWrite{Addr: 0x11, Val: 8}) {
		t.Fatalf("driver process received %v", got)
	}
	if !ep.finished {
		t.Fatal("Finish not called")
	}
}

func TestDriverOutReadServing(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	dout := s.NewDriverOut("status", 0x20, 4)
	dout.Set(0x21, 0xdead)
	dout.Set(0x22, 0xbeef)

	ep := &fakeEndpoint{incoming: [][]DataMsg{
		{{Kind: DataReadReq, Addr: 0x21, Count: 2}},
	}}
	if _, err := s.DriverSimulate(clk, ep, DriverConfig{TSync: 4, TotalCycles: 4}); err != nil {
		t.Fatal(err)
	}
	if len(ep.sent) != 1 {
		t.Fatalf("sent %d messages, want 1 read response", len(ep.sent))
	}
	resp := ep.sent[0]
	if resp.Kind != DataReadResp || resp.Addr != 0x21 || len(resp.Words) != 2 ||
		resp.Words[0] != 0xdead || resp.Words[1] != 0xbeef {
		t.Fatalf("read response %+v", resp)
	}
}

func TestDriverUnmappedAccessErrors(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	ep := &fakeEndpoint{incoming: [][]DataMsg{
		{{Kind: DataWrite, Addr: 0x999, Words: []uint32{1}}},
	}}
	if _, err := s.DriverSimulate(clk, ep, DriverConfig{TSync: 1, TotalCycles: 2}); err == nil {
		t.Fatal("write to unmapped address did not error")
	}

	s2 := NewSimulator("t2")
	clk2 := s2.NewClock("clk", sim.NS(10))
	ep2 := &fakeEndpoint{incoming: [][]DataMsg{
		{{Kind: DataReadReq, Addr: 0x999, Count: 1}},
	}}
	if _, err := s2.DriverSimulate(clk2, ep2, DriverConfig{TSync: 1, TotalCycles: 2}); err == nil {
		t.Fatal("read from unmapped address did not error")
	}
}

func TestDriverInterruptEdgeDetection(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	irqSig := NewBitSignal(s, "irq")
	s.WatchInterrupt(irqSig, 3)

	// Raise for 3 cycles then drop then raise again: exactly 2 INT packets.
	s.Thread("drv", func(c *Ctx) {
		c.WaitCycles(clk, 2)
		irqSig.Write(true)
		c.WaitCycles(clk, 3)
		irqSig.Write(false)
		c.WaitCycles(clk, 2)
		irqSig.Write(true)
	})
	ep := &fakeEndpoint{}
	if _, err := s.DriverSimulate(clk, ep, DriverConfig{TSync: 100, TotalCycles: 12}); err != nil {
		t.Fatal(err)
	}
	if len(ep.ints) != 2 {
		t.Fatalf("sent %d interrupts, want 2 (level held high must not retrigger)", len(ep.ints))
	}
	for _, irq := range ep.ints {
		if irq != 3 {
			t.Fatalf("interrupt line %d, want 3", irq)
		}
	}
}

func TestDriverRaiseImperativeInterrupt(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	s.Thread("drv", func(c *Ctx) {
		c.WaitCycles(clk, 1)
		s.RaiseDriverInterrupt(5)
	})
	ep := &fakeEndpoint{}
	if _, err := s.DriverSimulate(clk, ep, DriverConfig{TSync: 10, TotalCycles: 3}); err != nil {
		t.Fatal(err)
	}
	if len(ep.ints) != 1 || ep.ints[0] != 5 {
		t.Fatalf("interrupts %v, want [5]", ep.ints)
	}
}

func TestDriverOutPostedWrites(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	dout := s.NewDriverOut("tx", 0x40, 8)
	s.Thread("drv", func(c *Ctx) {
		c.WaitCycles(clk, 1)
		dout.Post(0x40, []uint32{1, 2, 3})
	})
	ep := &fakeEndpoint{}
	if _, err := s.DriverSimulate(clk, ep, DriverConfig{TSync: 10, TotalCycles: 3}); err != nil {
		t.Fatal(err)
	}
	if len(ep.sent) != 1 || ep.sent[0].Kind != DataWrite || len(ep.sent[0].Words) != 3 {
		t.Fatalf("posted writes: %+v", ep.sent)
	}
}

func TestDriverSyncCadence(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	ep := &fakeEndpoint{}
	st, err := s.DriverSimulate(clk, ep, DriverConfig{TSync: 7, TotalCycles: 20})
	if err != nil {
		t.Fatal(err)
	}
	// 20 cycles at TSync=7 → syncs of 7,7,6.
	want := []uint64{7, 7, 6}
	if len(ep.syncs) != len(want) {
		t.Fatalf("syncs %v, want %v", ep.syncs, want)
	}
	var total uint64
	for i := range want {
		if ep.syncs[i] != want[i] {
			t.Fatalf("syncs %v, want %v", ep.syncs, want)
		}
		total += ep.syncs[i]
	}
	if total != 20 || st.Cycles != 20 || st.SyncEvents != 3 {
		t.Fatalf("stats %+v, granted total %d", st, total)
	}
	if st.LastBoardCy != 20 {
		t.Fatalf("board cycle %d, want 20", st.LastBoardCy)
	}
}

func TestDriverStopEarly(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	ep := &fakeEndpoint{}
	stop := false
	st, err := s.DriverSimulate(clk, ep, DriverConfig{
		TSync:       5,
		TotalCycles: 1000,
		StopEarly: func() bool {
			stop = !stop
			return stop // stops at the first sync boundary
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 5 {
		t.Fatalf("ran %d cycles, want 5 (stop at first boundary)", st.Cycles)
	}
}

func TestDriverOverlapRejected(t *testing.T) {
	s := NewSimulator("t")
	s.NewDriverIn("a", 0x0, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping driver_in ranges did not panic")
		}
	}()
	s.NewDriverIn("b", 0x4, 8)
}

func TestDriverZeroTSyncRejected(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	if _, err := s.DriverSimulate(clk, &fakeEndpoint{}, DriverConfig{TSync: 0, TotalCycles: 1}); err == nil {
		t.Fatal("TSync=0 accepted")
	}
}

func TestDriverOutBoundsChecks(t *testing.T) {
	s := NewSimulator("t")
	d := s.NewDriverOut("d", 0x10, 2)
	for _, fn := range []func(){
		func() { d.Set(0x12, 1) },
		func() { d.Get(0x0f) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range register access did not panic")
				}
			}()
			fn()
		}()
	}
}
