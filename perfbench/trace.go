package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cosim"
)

// Stack layers as the traced run builds them, top to bottom (the
// cosim.BuildStack order). A shim sits above each one and times every
// call into it.
const (
	layerBatch = iota
	layerSession
	layerChaos
	layerTransport
	numLayers
)

var layerNames = [numLayers]string{"batch", "session", "chaos", "transport"}

type opKind int

const (
	opSend opKind = iota
	opRecv
	opTryRecv
)

var opNames = [...]string{"send", "recv", "tryrecv"}

// span is one timed call into a stack layer. Times are nanoseconds since
// the tracer's epoch; Parent is 0 for a call made by the layer's caller
// rather than by the layer above.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Session uint64 `json:"session"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer collects the spans of one traced session. It keeps the first
// maxSpans spans for the span file and folds every span into per-side
// aggregates, so long sessions stay cheap in memory.
type tracer struct {
	session  uint64
	epoch    time.Time
	nextID   atomic.Uint64
	maxSpans int

	mu      sync.Mutex
	spans   []span
	dropped int

	hw, board *sideTrace
}

func newTracer(session uint64, maxSpans int) *tracer {
	t := &tracer{session: session, epoch: time.Now(), maxSpans: maxSpans}
	t.hw = &sideTrace{name: "hw", t: t}
	t.board = &sideTrace{name: "board", t: t}
	t.hw.first.Store(-1)
	t.board.first.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	if t.maxSpans == 0 {
		return
	}
	t.mu.Lock()
	if len(t.spans) < t.maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// track is the span stack of one goroutine. The endpoint's goroutine
// drives every layer down to the session layer (or the base, without
// one); below a session layer, one writer and one reader goroutine per
// channel drive the rest, so each gets its own track.
type track struct {
	mu    sync.Mutex
	stack []frame
}

type frame struct {
	id    uint64
	start int64
	child int64 // time spent in nested spans on the same track
}

const numTracks = 1 + 2*cosim.NumChannels

// sideTrace aggregates one side's spans (hw or board).
type sideTrace struct {
	name   string
	t      *tracer
	tracks [numTracks]track

	// self is each layer's span time minus its nested spans, on the main
	// track: the endpoint goroutine's time in that layer.
	self [numLayers]atomic.Int64
	// wait is the endpoint goroutine's time blocked for the peer's CLOCK
	// message: a leaf CLOCK receive on the main track.
	wait atomic.Int64
	// inStack is the endpoint goroutine's total time inside the stack
	// (root spans of the main track); the rest of its wall time is the
	// endpoint's own simulator work.
	inStack     atomic.Int64
	first, last atomic.Int64 // first root start and last root end, main track

	sends, sendNs, sendBytes atomic.Int64 // base-transport sends
	sessionFrames            atomic.Int64 // frames the session layer sent downward
}

// shim times every call into the layer beneath it. It implements
// cosim.Transport and Unwrap, so capability probes walk through it, and
// forwards ChaosStats so a session layer above it still sees the chaos
// layer's injury count.
type shim struct {
	inner cosim.Transport
	side  *sideTrace
	layer int
	// link marks a shim driven by a session layer's own goroutines.
	link bool
	// feedsSession marks the shim directly beneath a session layer; its
	// sends are the session's frames.
	feedsSession bool
	names        [len(opNames)][cosim.NumChannels]string
}

func (s *shim) track(ch cosim.Channel, op opKind) *track {
	if !s.link {
		return &s.side.tracks[0]
	}
	dir := 0
	if op != opSend {
		dir = 1
	}
	return &s.side.tracks[1+2*int(ch)+dir]
}

func (s *shim) begin(tr *track) {
	id := s.side.t.nextID.Add(1)
	tr.mu.Lock()
	tr.stack = append(tr.stack, frame{id: id, start: s.side.t.now()})
	tr.mu.Unlock()
}

func (s *shim) end(tr *track, ch cosim.Channel, op opKind, bytes int) {
	t := s.side.t
	end := t.now()
	tr.mu.Lock()
	f := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	dur := end - f.start
	var parent uint64
	if n := len(tr.stack); n > 0 {
		tr.stack[n-1].child += dur
		parent = tr.stack[n-1].id
	}
	tr.mu.Unlock()

	side := s.side
	self := dur - f.child
	main := tr == &side.tracks[0]
	if main && parent == 0 {
		side.inStack.Add(dur)
		side.first.CompareAndSwap(-1, f.start)
		side.last.Store(end)
	}
	switch {
	case main && f.child == 0 && op == opRecv && ch == cosim.ChanClock:
		side.wait.Add(self)
	case main:
		side.self[s.layer].Add(self)
	}
	if op == opSend {
		if s.layer == layerTransport {
			side.sends.Add(1)
			side.sendNs.Add(dur)
			side.sendBytes.Add(int64(bytes))
		}
		if s.feedsSession {
			side.sessionFrames.Add(1)
		}
	}
	t.record(span{
		ID: f.id, Parent: parent, Session: t.session,
		Name:  s.names[op][ch],
		Start: f.start, End: end,
	})
}

func (s *shim) Send(ch cosim.Channel, m cosim.Msg) error {
	bytes := 0
	if s.layer == layerTransport {
		bytes = m.WireSize() // Send hands m's buffers on; size it first
	}
	tr := s.track(ch, opSend)
	s.begin(tr)
	err := s.inner.Send(ch, m)
	s.end(tr, ch, opSend, bytes)
	return err
}

func (s *shim) Recv(ch cosim.Channel) (cosim.Msg, error) {
	tr := s.track(ch, opRecv)
	s.begin(tr)
	m, err := s.inner.Recv(ch)
	s.end(tr, ch, opRecv, 0)
	return m, err
}

func (s *shim) TryRecv(ch cosim.Channel) (cosim.Msg, bool, error) {
	tr := s.track(ch, opTryRecv)
	s.begin(tr)
	m, ok, err := s.inner.TryRecv(ch)
	s.end(tr, ch, opTryRecv, 0)
	return m, ok, err
}

func (s *shim) Close() error { return s.inner.Close() }

// Unwrap implements cosim.Unwrapper.
func (s *shim) Unwrap() cosim.Transport { return s.inner }

// ChaosStats forwards the injury counters of a chaos layer beneath.
func (s *shim) ChaosStats() cosim.ChaosStats {
	if c, ok := s.inner.(interface{ ChaosStats() cosim.ChaosStats }); ok {
		return c.ChaosStats()
	}
	return cosim.ChaosStats{}
}

// tracedStack is one side's stack, built layer by layer with a shim above
// each layer, plus handles on the layers for their own counters.
type tracedStack struct {
	top     cosim.Transport
	chaos   *cosim.ChaosTransport
	session *cosim.SessionTransport
	batch   *cosim.BatchTransport
}

// buildTracedStack mirrors cosim.BuildStack: chaos above the base, the
// session above chaos, batching topmost.
func buildTracedStack(base cosim.Transport, sc cosim.StackConfig, side *sideTrace) (tracedStack, error) {
	if sc.Delay != 0 {
		return tracedStack{}, fmt.Errorf("perfbench: traced stacks do not model the delay layer")
	}
	var st tracedStack
	link := sc.Session != nil
	wrap := func(inner cosim.Transport, layer int, link, feeds bool) cosim.Transport {
		s := &shim{inner: inner, side: side, layer: layer, link: link, feedsSession: feeds}
		for op := range s.names {
			for ch := range s.names[op] {
				s.names[op][ch] = side.name + "." + layerNames[layer] + "." + opNames[op] + "." + cosim.Channel(ch).String()
			}
		}
		return s
	}
	top := wrap(base, layerTransport, link, link && sc.Chaos == nil)
	if sc.Chaos != nil {
		st.chaos = cosim.NewChaosTransport(top, *sc.Chaos)
		top = wrap(st.chaos, layerChaos, link, link)
	}
	if sc.Session != nil {
		st.session = cosim.NewSessionTransport(top, *sc.Session)
		top = wrap(st.session, layerSession, false, false)
	}
	if sc.Batch {
		st.batch = cosim.NewBatchTransport(top)
		top = wrap(st.batch, layerBatch, false, false)
	}
	st.top = top
	return st, nil
}

// writeSpans appends the tracers' spans to path as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
