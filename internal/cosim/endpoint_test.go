package cosim

import (
	"testing"

	"repro/internal/hdlsim"
)

// scriptedBoard runs a minimal board-side loop on a goroutine: per grant it
// posts one write of the grant's tick count and acknowledges.
func scriptedBoard(t *testing.T, ep *BoardEndpoint, echo bool) chan struct {
	grants []Grant
	err    error
} {
	t.Helper()
	out := make(chan struct {
		grants []Grant
		err    error
	}, 1)
	go func() {
		var grants []Grant
		var cycle, tick uint64
		for {
			g, err := ep.WaitGrant()
			if err != nil {
				out <- struct {
					grants []Grant
					err    error
				}{grants, err}
				return
			}
			if g.Finished {
				err := ep.FinishAck(cycle, tick)
				out <- struct {
					grants []Grant
					err    error
				}{grants, err}
				return
			}
			grants = append(grants, g)
			cycle += g.Ticks
			tick++
			if echo {
				if err := ep.PostWrite(0x10, []uint32{uint32(g.Ticks)}); err != nil {
					out <- struct {
						grants []Grant
						err    error
					}{grants, err}
					return
				}
			}
			if err := ep.Ack(cycle, tick, NoLookahead); err != nil {
				out <- struct {
					grants []Grant
					err    error
				}{grants, err}
				return
			}
		}
	}()
	return out
}

func runRendezvous(t *testing.T, mode SyncMode) {
	t.Helper()
	hwT, boardT := NewInProcPair(64)
	hw := NewHWEndpoint(hwT, mode)
	board := NewBoardEndpoint(boardT)
	result := scriptedBoard(t, board, true)

	// Simulate three quanta of 10 ticks with one interrupt + one write in
	// the second.
	var boardData []hdlsim.DataMsg
	for q := 0; q < 3; q++ {
		if q == 1 {
			if err := hw.SendData(hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: 0x20, Words: []uint32{42}}); err != nil {
				t.Fatal(err)
			}
			if err := hw.SendData(hdlsim.DataMsg{Kind: hdlsim.DataInterrupt, IRQ: 5}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := hw.Sync(10, uint64(10*(q+1))); err != nil {
			t.Fatal(err)
		}
		boardData = append(boardData, hw.PollData()...)
	}
	if err := hw.Finish(30); err != nil {
		t.Fatal(err)
	}
	boardData = append(boardData, hw.PollData()...)

	r := <-result
	if r.err != nil {
		t.Fatalf("board loop: %v", r.err)
	}
	if len(r.grants) != 3 {
		t.Fatalf("board saw %d grants, want 3", len(r.grants))
	}
	// The write+interrupt sent during HW quantum 2 ride grant 2.
	g := r.grants[1]
	if len(g.Writes) != 1 || g.Writes[0].Addr != 0x20 || g.Writes[0].Words[0] != 42 {
		t.Fatalf("grant 2 writes: %+v", g.Writes)
	}
	if len(g.Interrupts) != 1 || g.Interrupts[0] != 5 {
		t.Fatalf("grant 2 interrupts: %+v", g.Interrupts)
	}
	if len(r.grants[0].Writes) != 0 || len(r.grants[2].Writes) != 0 {
		t.Fatalf("stray writes on grants 1/3: %+v", r.grants)
	}
	// Board echoed one write per quantum; all three must reach HW by
	// Finish regardless of mode.
	if len(boardData) != 3 {
		t.Fatalf("%v mode: HW saw %d board writes, want 3", mode, len(boardData))
	}
	for _, d := range boardData {
		if d.Kind != hdlsim.DataWrite || d.Addr != 0x10 || d.Words[0] != 10 {
			t.Fatalf("board write mangled: %+v", d)
		}
	}
	cyc, tick := hw.BoardTime()
	if cyc != 30 || tick != 3 {
		t.Fatalf("final board time %d/%d, want 30/3", cyc, tick)
	}
	hwT.Close()
}

func TestEndpointRendezvousAlternating(t *testing.T) { runRendezvous(t, SyncAlternating) }
func TestEndpointRendezvousPipelined(t *testing.T)   { runRendezvous(t, SyncPipelined) }

func TestAlternatingLatencyIsOneQuantum(t *testing.T) {
	hwT, boardT := NewInProcPair(64)
	hw := NewHWEndpoint(hwT, SyncAlternating)
	board := NewBoardEndpoint(boardT)
	result := scriptedBoard(t, board, true)

	// After Sync of quantum 1, PollData must already hold the board's
	// quantum-1 echo (alternating waits for the ack).
	if _, err := hw.Sync(10, 10); err != nil {
		t.Fatal(err)
	}
	if got := hw.PollData(); len(got) != 1 {
		t.Fatalf("alternating: %d board msgs visible after first sync, want 1", len(got))
	}
	if err := hw.Finish(10); err != nil {
		t.Fatal(err)
	}
	<-result
	hwT.Close()
}

func TestPipelinedLatencyIsTwoQuanta(t *testing.T) {
	hwT, boardT := NewInProcPair(64)
	hw := NewHWEndpoint(hwT, SyncPipelined)
	board := NewBoardEndpoint(boardT)
	result := scriptedBoard(t, board, true)

	// Pipelined: first sync returns without waiting; no board data yet.
	if _, err := hw.Sync(10, 10); err != nil {
		t.Fatal(err)
	}
	if got := hw.PollData(); len(got) != 0 {
		t.Fatalf("pipelined: %d board msgs visible after first sync, want 0", len(got))
	}
	// Second sync consumes ack 1 → board quantum-1 data becomes visible.
	if _, err := hw.Sync(10, 20); err != nil {
		t.Fatal(err)
	}
	if got := hw.PollData(); len(got) != 1 {
		t.Fatalf("pipelined: %d board msgs visible after second sync, want 1", len(got))
	}
	if err := hw.Finish(20); err != nil {
		t.Fatal(err)
	}
	<-result
	hwT.Close()
}

func TestEndpointMetrics(t *testing.T) {
	hwT, boardT := NewInProcPair(64)
	hw := NewHWEndpoint(hwT, SyncAlternating)
	board := NewBoardEndpoint(boardT)
	result := scriptedBoard(t, board, false)

	for q := 0; q < 5; q++ {
		if _, err := hw.Sync(100, uint64(100*(q+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := hw.Finish(500); err != nil {
		t.Fatal(err)
	}
	<-result
	m := hw.Metrics()
	if m.SyncEvents != 5 || m.TicksGranted != 500 {
		t.Fatalf("metrics %+v", m)
	}
	if m.BytesSent == 0 {
		t.Fatal("no bytes counted")
	}
	hwT.Close()
}

func TestEndpointOverTCP(t *testing.T) {
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acc := make(chan Transport, 1)
	go func() {
		tr, err := ln.Accept()
		if err != nil {
			t.Error(err)
			close(acc)
			return
		}
		acc <- tr
	}()
	boardT, err := DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hwT, ok := <-acc
	if !ok {
		t.Fatal("accept failed")
	}
	hw := NewHWEndpoint(hwT, SyncAlternating)
	board := NewBoardEndpoint(boardT)
	result := scriptedBoard(t, board, true)
	for q := 0; q < 10; q++ {
		if _, err := hw.Sync(7, uint64(7*(q+1))); err != nil {
			t.Fatal(err)
		}
		if got := hw.PollData(); len(got) != 1 || got[0].Words[0] != 7 {
			t.Fatalf("quantum %d: board data %+v", q, got)
		}
	}
	if err := hw.Finish(70); err != nil {
		t.Fatal(err)
	}
	r := <-result
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.grants) != 10 {
		t.Fatalf("board saw %d grants", len(r.grants))
	}
	hwT.Close()
	boardT.Close()
}

func TestBoardReadReqFlow(t *testing.T) {
	// Board posts a read request in quantum 1; HW routes it and responds
	// during quantum 2; response rides grant 3 (alternating: req visible
	// to HW after sync 1, HW answers during quantum 2, counts ride grant
	// for quantum 2... delivered with that grant).
	hwT, boardT := NewInProcPair(64)
	hw := NewHWEndpoint(hwT, SyncAlternating)
	board := NewBoardEndpoint(boardT)

	done := make(chan error, 1)
	var resps []RegBlock
	go func() {
		for {
			g, err := board.WaitGrant()
			if err != nil {
				done <- err
				return
			}
			if g.Finished {
				done <- board.FinishAck(0, 0)
				return
			}
			resps = append(resps, g.ReadResps...)
			if g.HWCycle == 10 { // first quantum: fire the read
				if err := board.PostReadReq(0x50, 2); err != nil {
					done <- err
					return
				}
			}
			if err := board.Ack(g.HWCycle, 0, NoLookahead); err != nil {
				done <- err
				return
			}
		}
	}()

	// Quantum 1: nothing from HW.
	if _, err := hw.Sync(10, 10); err != nil {
		t.Fatal(err)
	}
	// HW now sees the read request and serves it mid-"quantum 2".
	reqs := hw.PollData()
	if len(reqs) != 1 || reqs[0].Kind != hdlsim.DataReadReq || reqs[0].Count != 2 {
		t.Fatalf("HW saw %+v", reqs)
	}
	if err := hw.SendData(hdlsim.DataMsg{Kind: hdlsim.DataReadResp, Addr: 0x50, Words: []uint32{11, 22}}); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Sync(10, 20); err != nil {
		t.Fatal(err)
	}
	if err := hw.Finish(20); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(resps) != 1 || resps[0].Addr != 0x50 || len(resps[0].Words) != 2 || resps[0].Words[1] != 22 {
		t.Fatalf("board read responses: %+v", resps)
	}
	hwT.Close()
}
