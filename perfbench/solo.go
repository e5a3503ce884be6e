package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/cosim"
	"repro/internal/farm"
	"repro/internal/router"
)

// setupReps is how many times a run repeats a session's set-up; setup_s
// is the median.
const setupReps = 60

// soloBench runs one router.Run at a time, cycling through the spec
// pool: a single closed-loop client.
type soloBench struct {
	specs []farm.SessionSpec
	want  []fingerprint
}

// setup times what a session builds before its first cycle: the
// testbench, the board with its ISS program, and the base link.
func (b *soloBench) setup(ctx context.Context) (float64, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		rc, err := b.specs[i%len(b.specs)].RunConfig()
		if err != nil {
			return 0, err
		}
		// Every repetition starts with the free heap returned to the OS, so
		// each pays for fresh pages. Otherwise whether the link's channel
		// buffers landed on still-resident pages split the repetitions
		// into a fast and a slow mode, and the median jumped between them.
		debug.FreeOSMemory()
		start := time.Now()
		router.BuildTestbench(rc.TB)
		bs, err := router.BuildBoardSide(rc.BoardCfg, rc.AppCfg)
		if err != nil {
			return 0, err
		}
		hw, board, err := basePair(rc.Transport)
		if err != nil {
			bs.Board.K.Shutdown()
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		bs.Board.K.Shutdown()
		hw.Close()
		board.Close()
	}
	return median(times), nil
}

func runSpec(ctx context.Context, spec farm.SessionSpec) (router.RunResult, error) {
	rc, err := spec.RunConfig()
	if err != nil {
		return router.RunResult{}, err
	}
	res, err := router.Run(ctx, router.Transports{}, router.WithConfig(rc))
	if err == nil {
		err = res.Conservation
	}
	return res, err
}

func (b *soloBench) measure(ctx context.Context, d time.Duration) (*window, error) {
	w := &window{start: readUsage()}
	deadline := w.start.wall.Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := i % len(b.specs)
		w.attempted++
		cpu0, start := cpuTime(), time.Now()
		res, err := runSpec(ctx, b.specs[k])
		lat, cpu := time.Since(start), cpuTime()-cpu0
		if err != nil {
			w.fail(fmt.Errorf("spec %d: %w", k, err))
			continue
		}
		if got := fingerprintOf(res); got != b.want[k] {
			w.fail(fmt.Errorf("spec %d: fingerprint %+v, want %+v", k, got, b.want[k]))
			continue
		}
		w.latencies = append(w.latencies, lat.Seconds())
		w.slice(res.SimCycles, lat, cpu)
		w.live = append(w.live, liveHeapMiB())
		w.boundaries += b.want[k].boundaries()
	}
	w.end = readUsage()
	return w, nil
}

// traced runs passes over the spec pool, each spec once untraced and once
// traced, until the window has passed.
func (b *soloBench) traced(ctx context.Context, d time.Duration) (*layerTotals, error) {
	lt := &layerTotals{}
	deadline := time.Now().Add(d)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for k, spec := range b.specs {
			if err := lt.pair(ctx, spec, b.want[k], uint64(pass*len(b.specs)+k+1), true); err != nil {
				return nil, fmt.Errorf("spec %d: %w", k, err)
			}
		}
	}
	return lt, nil
}

// basePair opens a fresh base link of the given kind, as router.Run
// would for a self-dialed session.
func basePair(kind router.TransportKind) (hw, board cosim.Transport, err error) {
	switch kind {
	case router.TransportInProc:
		hw, board = cosim.NewInProcPair(4096)
		return hw, board, nil
	case router.TransportShm:
		return cosim.NewShmPair(cosim.ShmConfig{})
	case router.TransportTCP:
		return dialTCP()
	default:
		return nil, nil, fmt.Errorf("perfbench: no base link for transport %v", kind)
	}
}

// dialTCP connects a private loopback TCP link.
func dialTCP() (hw, board cosim.Transport, err error) {
	ln, err := cosim.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		tr  cosim.Transport
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		tr, err := ln.Accept()
		acc <- accepted{tr, err}
	}()
	board, err = cosim.DialNet(ln.Network(), ln.Addr())
	if err != nil {
		ln.Close()
		if a := <-acc; a.tr != nil {
			a.tr.Close()
		}
		return nil, nil, err
	}
	a := <-acc
	if a.err != nil {
		board.Close()
		return nil, nil, a.err
	}
	return a.tr, board, nil
}
