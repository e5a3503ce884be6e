package cosim

import (
	"errors"
	"testing"
)

// FuzzShmRing drives the raw ring verbs with a fuzz-chosen op script —
// pushes of varying sizes and channels, pops checked against a FIFO
// model, and byte-level corruption of the data region (torn length
// prefixes, stray wrap markers) — and proves the ring never panics,
// never hangs, never reorders, and reports corruption as a terminal
// error rather than garbage silently decoded as fresh input... or at
// worst as a decode error one layer up; what it must never do is loop
// or deliver frames out of order while the ring is intact.
func FuzzShmRing(f *testing.F) {
	// Seeds: plain push/pop traffic, a wraparound-heavy script, a
	// full-ring grind, and corruption hitting a length prefix.
	f.Add([]byte{0, 10, 1, 0, 0, 60, 1, 0, 2, 5, 1, 0, 1, 0})
	f.Add([]byte{0, 255, 0, 255, 1, 0, 0, 255, 1, 0, 0, 255, 1, 0, 0, 255, 1, 0})
	f.Add([]byte{0, 200, 0, 200, 0, 200, 0, 200, 0, 200, 0, 200, 0, 200, 0, 200})
	f.Add([]byte{0, 30, 3, 1, 1, 0, 1, 0})
	f.Add([]byte{0, 30, 3, 0, 1, 0})

	f.Fuzz(func(t *testing.T, script []byte) {
		const ringBytes = 4096 // small ring: wrap and full are easy to reach
		seg := newHeapShmSegment(ringBytes)
		r, _ := segmentRings(seg, ringBytes)

		type rec struct {
			ch    Channel
			addr  uint32
			words int
		}
		var model []rec
		corrupted := false
		poisoned := false // ring reported a terminal error; verbs stay safe but unchecked
		seq := uint32(0)

		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%4, script[i+1]
			switch op {
			case 0, 2: // push: data write with arg words, or tiny control frame
				var m Msg
				var want rec
				ch := Channel(arg) % numChannels
				if op == 0 {
					m = Msg{Type: MTDataWrite, Addr: seq, Words: make([]uint32, int(arg)%200)}
					for j := range m.Words {
						m.Words[j] = seq + uint32(j)
					}
					want = rec{ch: ch, addr: seq, words: len(m.Words)}
				} else {
					m = Msg{Type: MTClockGrant, Ticks: uint64(arg), HWCycle: uint64(seq)}
					want = rec{ch: ch, addr: seq, words: -1}
				}
				_, _, err := r.tryPush(ch, &m)
				switch {
				case err == nil:
					if !corrupted {
						model = append(model, want)
					}
					seq++
				case errors.Is(err, errShmFull):
					// Backpressure is a valid outcome; the model is unchanged.
				default:
					t.Fatalf("tryPush: unexpected error %v", err)
				}
			case 1: // pop, checked against the model while the ring is intact
				ch, body, newTail, err := r.tryPop()
				if poisoned {
					// After a terminal error anything but a panic/hang is
					// acceptable; just keep the verbs exercised.
					if err == nil {
						r.hdr.tail.Store(newTail)
					}
					continue
				}
				if err != nil {
					if errors.Is(err, errShmEmpty) {
						if !corrupted && len(model) != 0 {
							t.Fatalf("ring empty but model holds %d records", len(model))
						}
						continue
					}
					if !corrupted {
						t.Fatalf("tryPop: terminal error on intact ring: %v", err)
					}
					poisoned = true
					continue
				}
				m, derr := decodeBody(body)
				r.hdr.tail.Store(newTail)
				if derr != nil {
					m.Release()
					if !corrupted {
						t.Fatalf("decode error on intact ring: %v", derr)
					}
					poisoned = true
					continue
				}
				if !corrupted {
					if len(model) == 0 {
						m.Release()
						t.Fatal("pop succeeded with empty model")
					}
					want := model[0]
					model = model[1:]
					if ch != want.ch {
						m.Release()
						t.Fatalf("channel %d, want %d", ch, want.ch)
					}
					if want.words >= 0 {
						if m.Type != MTDataWrite || m.Addr != want.addr || len(m.Words) != want.words {
							m.Release()
							t.Fatalf("got type=%d addr=%d words=%d, want addr=%d words=%d",
								m.Type, m.Addr, len(m.Words), want.addr, want.words)
						}
					} else if m.Type != MTClockGrant || m.HWCycle != uint64(want.addr) {
						m.Release()
						t.Fatalf("got type=%d hwcycle=%d, want clock grant %d", m.Type, m.HWCycle, want.addr)
					}
				}
				m.Release()
			case 3: // corrupt one byte of the data region (torn prefix, stray marker)
				off := shmDataOff + (int(arg)*131)%ringBytes
				seg[off] ^= 0xFF
				corrupted = true
			}
		}

		// Whatever the script did, a bounded drain must terminate: every
		// pop either yields a record, errShmEmpty, or a terminal error.
		for i := 0; i < 64; i++ {
			_, body, newTail, err := r.tryPop()
			if err != nil {
				break
			}
			if m, derr := decodeBody(body); derr == nil {
				m.Release()
			}
			r.hdr.tail.Store(newTail)
		}
	})
}

// FuzzShmDemux drives the caller-side demux with a fuzz-chosen script:
// the peer pushes frames on chosen channels straight into a small ring,
// and the receiver calls TryRecv or Recv on chosen channels. A model
// replays the demux rule — a channel's pending frames first, then pop
// the ring, parking other channels' frames until one is InboxDepth
// deep — and every delivery, every pending depth, and the final drain
// after Close must match it exactly.
func FuzzShmDemux(f *testing.F) {
	// Seeds: interleaved traffic, one channel's pending queue filling up
	// behind another's receiver, and a peer close mid-script.
	f.Add([]byte{1, 0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2, 1, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 1})
	f.Add([]byte{2, 0, 40, 0, 41, 0, 42, 1, 2, 3, 0, 1, 1, 2, 0, 2, 1})

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		const ringBytes = 4096
		seg := newHeapShmSegment(ringBytes)
		peer, in := segmentRings(seg, ringBytes)
		depth := int(script[0])%4 + 1
		rx := newShmTransport(in, peer, depth, nil)

		type rec struct {
			ch  Channel
			seq uint32
		}
		var ring []rec
		var pend [numChannels][]rec
		closed := false
		// next replays one receive on ch: what it must deliver, and
		// whether the link must report ErrClosed instead.
		next := func(ch Channel) (rec, bool, bool) {
			if len(pend[ch]) > 0 {
				r := pend[ch][0]
				pend[ch] = pend[ch][1:]
				return r, true, false
			}
			for len(ring) > 0 {
				r := ring[0]
				if r.ch != ch && len(pend[r.ch]) >= depth {
					return rec{}, false, false
				}
				ring = ring[1:]
				if r.ch == ch {
					return r, true, false
				}
				pend[r.ch] = append(pend[r.ch], r)
			}
			return rec{}, false, closed
		}
		check := func(ch Channel, m Msg, ok bool, err error) {
			t.Helper()
			want, wantOK, wantClosed := next(ch)
			switch {
			case wantClosed:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("channel %v: got ok=%v err=%v, want ErrClosed", ch, ok, err)
				}
			case err != nil:
				t.Fatalf("channel %v: unexpected error %v", ch, err)
			case ok != wantOK:
				t.Fatalf("channel %v: delivered=%v, model says %v", ch, ok, wantOK)
			case ok && m.Addr != want.seq:
				t.Fatalf("channel %v: got frame %d, want %d", ch, m.Addr, want.seq)
			}
			m.Release()
			for c := range pend {
				if got := rx.pending[c].len(); got != len(pend[c]) || got > depth {
					t.Fatalf("channel %v holds %d pending frames, model %d, bound %d", Channel(c), got, len(pend[c]), depth)
				}
			}
		}

		seq := uint32(0)
		for i := 1; i+1 < len(script); i += 2 {
			op, arg := script[i]%4, script[i+1]
			ch := Channel(arg) % numChannels
			switch op {
			case 0: // the peer pushes a frame of arg-dependent size on ch
				if closed {
					continue
				}
				m := Msg{Type: MTDataWrite, Addr: seq, Words: make([]uint32, int(arg)%64)}
				if _, _, err := peer.tryPush(ch, &m); err == nil {
					ring = append(ring, rec{ch, seq})
					seq++
				} else if !errors.Is(err, errShmFull) {
					t.Fatal(err)
				}
			case 1: // TryRecv
				m, ok, err := rx.TryRecv(ch)
				check(ch, m, ok, err)
			case 2: // Recv, only when the model says it cannot block
				saved, savedRing := pend, ring
				for c := range saved {
					saved[c] = append([]rec(nil), pend[c]...)
				}
				_, ok, gone := next(ch)
				pend, ring = saved, savedRing
				if ok || gone {
					m, err := rx.Recv(ch)
					check(ch, m, err == nil, err)
				} else {
					m, ok, err := rx.TryRecv(ch)
					check(ch, m, ok, err)
				}
			case 3: // the peer closes its side
				peer.close()
				closed = true
			}
		}

		// After a local Close the segment is off limits: each channel
		// yields what the demux already parked, in order, then ErrClosed.
		rx.Close()
		ring, closed = nil, true
		for c := Channel(0); c < numChannels; c++ {
			for {
				m, ok, err := rx.TryRecv(c)
				check(c, m, ok, err)
				if err != nil {
					break
				}
			}
		}
	})
}
