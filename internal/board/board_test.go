package board

import (
	"testing"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
	"repro/internal/rtos"
)

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.RTOS.ISRCost = 0
	cfg.RTOS.DSRCost = 0
	cfg.RTOS.CtxSwitchCost = 0
	cfg.RTOS.IdleSwitchCost = 0
	return cfg
}

// hwScript drives the HW side of an in-proc link with a simple script.
type hwScript struct {
	hw *cosim.HWEndpoint
}

func newLinked(t *testing.T, b *Board) (*hwScript, chan error) {
	t.Helper()
	hwT, boardT := cosim.NewInProcPair(256)
	hw := cosim.NewHWEndpoint(hwT, cosim.SyncAlternating)
	bep := cosim.NewBoardEndpoint(boardT)
	for _, d := range b.devs {
		d.Attach(bep)
	}
	done := make(chan error, 1)
	go func() { done <- b.Run(bep) }()
	return &hwScript{hw: hw}, done
}

func TestBoardAdvancesOnGrants(t *testing.T) {
	b := New(testCfg())
	ticksSeen := []uint64{}
	b.K.CreateThread("obs", 10, func(c *rtos.ThreadCtx) {
		for {
			c.Sleep(1)
			ticksSeen = append(ticksSeen, b.K.SWTick())
		}
	})
	hs, done := newLinked(t, b)
	var hwCycle uint64
	for q := 0; q < 4; q++ {
		hwCycle += 10
		bc, err := hs.hw.Sync(10, hwCycle)
		if err != nil {
			t.Fatal(err)
		}
		// 10 ticks × 100 cycles/tick each quantum.
		if bc != (uint64(q)+1)*1000 {
			t.Fatalf("quantum %d: board cycle %d, want %d", q, bc, (q+1)*1000)
		}
	}
	if err := hs.hw.Finish(hwCycle); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// SW tick advances once per 100 cycles (default): 40 ticks total. The
	// observer wakes once per tick, except the final one: the tick-40
	// alarm fires on the last cycle of the last quantum, so the readied
	// thread would only run in a 41st-tick quantum that never arrives.
	if len(ticksSeen) != 39 {
		t.Fatalf("observer woke %d times, want 39", len(ticksSeen))
	}
	if b.Stats().Grants != 4 || b.Stats().TicksGranted != 40 {
		t.Fatalf("stats %+v", b.Stats())
	}
}

func TestBoardTimeFrozenBetweenGrants(t *testing.T) {
	b := New(testCfg())
	hs, done := newLinked(t, b)
	if _, err := hs.hw.Sync(5, 5); err != nil {
		t.Fatal(err)
	}
	c1, _ := hs.hw.BoardTime()
	// No grant: no time may pass regardless of wall-clock.
	c2, _ := hs.hw.BoardTime()
	if c1 != c2 || c1 != 500 {
		t.Fatalf("board time moved without grant: %d → %d", c1, c2)
	}
	hs.hw.Finish(5)
	<-done
}

func TestRemoteDevShadowAndPostedWrites(t *testing.T) {
	b := New(testCfg())
	dev, err := b.NewRemoteDev("/dev/fake", 0x100, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	var readBack []uint32
	b.K.CreateThread("app", 10, func(c *rtos.ThreadCtx) {
		// Wait for the device update to land (arrives with grant 2).
		c.Sleep(12)
		buf := make([]uint32, 3)
		if _, err := dev.Read(c, 4, buf); err != nil {
			t.Errorf("Read: %v", err)
		}
		readBack = buf
		if _, err := dev.Write(c, 0, []uint32{0xcafe}); err != nil {
			t.Errorf("Write: %v", err)
		}
		c.Exit()
	})
	hs, done := newLinked(t, b)
	// Quantum 1: plain.
	if _, err := hs.hw.Sync(10, 10); err != nil {
		t.Fatal(err)
	}
	// Quantum 2: carry a register update.
	if err := hs.hw.SendData(toDM(0x104, []uint32{7, 8, 9})); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.hw.Sync(10, 20); err != nil {
		t.Fatal(err)
	}
	// The app read the shadow and posted 0xcafe; it arrives at HW with
	// this or the next ack.
	var got []uint32
	for q := 0; q < 3 && got == nil; q++ {
		for _, m := range hs.hw.PollData() {
			got = m.Words
		}
		if got == nil {
			if _, err := hs.hw.Sync(10, 30+uint64(q)*10); err != nil {
				t.Fatal(err)
			}
		}
	}
	hs.hw.Finish(99)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(readBack) != 3 || readBack[0] != 7 || readBack[2] != 9 {
		t.Fatalf("shadow read %v", readBack)
	}
	if len(got) != 1 || got[0] != 0xcafe {
		t.Fatalf("posted write %v", got)
	}
}

func TestRemoteDevInterruptDelivery(t *testing.T) {
	b := New(testCfg())
	dev, err := b.NewRemoteDev("/dev/irqdev", 0, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dsrData []uint32
	b.K.AttachInterrupt(3, nil, func() {
		dsrData = append(dsrData, dev.PeekShadow(0))
	})
	hs, done := newLinked(t, b)
	// Write then interrupt within the same quantum: DSR must see the data.
	if err := hs.hw.SendData(toDM(0, []uint32{0x55})); err != nil {
		t.Fatal(err)
	}
	if err := hs.hw.SendData(hdlsim.DataMsg{Kind: hdlsim.DataInterrupt, IRQ: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.hw.Sync(10, 10); err != nil {
		t.Fatal(err)
	}
	hs.hw.Finish(10)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(dsrData) != 1 || dsrData[0] != 0x55 {
		t.Fatalf("DSR observed %v, want the write that preceded the IRQ", dsrData)
	}
	if b.Stats().IRQsDelivered != 1 {
		t.Fatalf("stats %+v", b.Stats())
	}
}

func TestRemoteDevSplitPhaseRead(t *testing.T) {
	b := New(testCfg())
	dev, err := b.NewRemoteDev("/dev/rd", 0x200, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	var resp []uint32
	b.K.CreateThread("reader", 10, func(c *rtos.ThreadCtx) {
		if err := dev.PostReadReq(c, 2, 2); err != nil {
			t.Errorf("PostReadReq: %v", err)
		}
		for {
			if r, ok := dev.TakeReadResp(); ok {
				resp = r
				c.Exit()
			}
			c.Sleep(1)
		}
	})
	hs, done := newLinked(t, b)
	if _, err := hs.hw.Sync(5, 5); err != nil { // board posts the request
		t.Fatal(err)
	}
	reqs := hs.hw.PollData()
	if len(reqs) != 1 || reqs[0].Addr != 0x202 || reqs[0].Count != 2 {
		t.Fatalf("HW saw requests %+v", reqs)
	}
	if err := hs.hw.SendData(respDM(0x202, []uint32{0xaa, 0xbb})); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.hw.Sync(5, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.hw.Sync(5, 15); err != nil {
		t.Fatal(err)
	}
	hs.hw.Finish(15)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(resp) != 2 || resp[0] != 0xaa || resp[1] != 0xbb {
		t.Fatalf("split-phase read returned %v", resp)
	}
}

func TestRemoteDevBounds(t *testing.T) {
	b := New(testCfg())
	dev, err := b.NewRemoteDev("/dev/b", 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.NewRemoteDev("/dev/overlap", 2, 4, nil); err == nil {
		t.Fatal("overlapping windows accepted")
	}
	var errs int
	b.K.CreateThread("t", 10, func(c *rtos.ThreadCtx) {
		if _, err := dev.Read(c, 2, make([]uint32, 3)); err != nil {
			errs++
		}
		if _, err := dev.Write(c, 4, []uint32{1}); err != nil {
			errs++
		}
		if err := dev.PostReadReq(c, 3, 2); err != nil {
			errs++
		}
		c.Exit()
	})
	b.K.Advance(10000)
	if errs != 3 {
		t.Fatalf("%d bounds errors, want 3", errs)
	}
	b.K.Shutdown()
}

func TestWatchdogBarksWithoutKicks(t *testing.T) {
	b := New(testCfg())
	w := b.NewWatchdog(10, -1)
	b.K.Advance(100 * 35) // 35 HW ticks, no kick
	if w.Barks() != 3 {
		t.Fatalf("barks = %d, want 3 (ticks 10,20,30)", w.Barks())
	}
}

func TestWatchdogStaysQuietWhenKicked(t *testing.T) {
	b := New(testCfg())
	w := b.NewWatchdog(10, -1)
	b.K.CreateThread("petter", 5, func(c *rtos.ThreadCtx) {
		for {
			c.Sleep(5)
			w.Kick()
		}
	})
	b.K.Advance(100 * 100)
	if w.Barks() != 0 {
		t.Fatalf("watchdog barked %d times despite kicks: %s", w.Barks(), w)
	}
	b.K.Shutdown()
}

func TestWatchdogImmuneToWallClockFreeze(t *testing.T) {
	// The rollback-impossibility argument inverted: with virtual ticks,
	// an arbitrarily long wall-clock gap between grants must not age the
	// watchdog, because the timer only advances on granted ticks.
	b := New(testCfg())
	w := b.NewWatchdog(10, -1)
	b.K.Advance(100 * 5)
	// (a real-time gap would be here)
	b.K.Advance(100 * 4)
	if w.Barks() != 0 {
		t.Fatalf("watchdog aged across the freeze: %d barks", w.Barks())
	}
}

func toDM(addr uint32, words []uint32) hdlsim.DataMsg {
	return hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: addr, Words: words}
}

func respDM(addr uint32, words []uint32) hdlsim.DataMsg {
	return hdlsim.DataMsg{Kind: hdlsim.DataReadResp, Addr: addr, Words: words}
}
