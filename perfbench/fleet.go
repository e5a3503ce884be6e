package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// The fleet workload's shape: two one-worker hosts, two clients that
// each submit their next spec only once the previous result is back.
const (
	fleetHosts      = 2
	fleetClients    = 2
	fleetSetupReps  = 60
	fleetTracedPool = 3 // the first spec of each kind
)

// fleetRig is an in-process fleet: farms behind host agents on loopback
// control ports, enrolled with one coordinator.
type fleetRig struct {
	reg   *obs.Registry
	coord *fleet.Coordinator
	farms []*farm.Farm
	hosts []*fleet.Host
}

func startFleet() (*fleetRig, error) {
	reg := obs.NewRegistry()
	r := &fleetRig{reg: reg, coord: fleet.NewCoordinator(fleet.Config{Obs: reg})}
	for i := 0; i < fleetHosts; i++ {
		f, err := farm.New(farm.WithWorkers(1))
		if err != nil {
			r.close()
			return nil, err
		}
		r.farms = append(r.farms, f)
		h, err := fleet.ListenHost(f, fleet.HostOptions{Name: fmt.Sprintf("host-%d", i)})
		if err != nil {
			r.close()
			return nil, err
		}
		r.hosts = append(r.hosts, h)
		if _, err := r.coord.Enroll(h.Addr()); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *fleetRig) close() {
	r.coord.Close()
	for _, h := range r.hosts {
		h.Close()
	}
	for _, f := range r.farms {
		f.Close()
	}
}

func (r *fleetRig) placements() uint64 { return r.reg.Counter("fleet_placements_total").Value() }
func (r *fleetRig) retries() uint64    { return r.reg.Counter("fleet_retries_total").Value() }

// sampleEvery is the slice length of the fleet's throughput samples:
// long enough to hold dozens of sessions, so no single session's cycles
// decide a slice.
const sampleEvery = time.Second

// sample is the fleet's progress at one instant.
type sample struct {
	wall   time.Time
	cpu    time.Duration
	cycles uint64 // simulated by the sessions completed so far
}

// fleetOutcome is one submission as its client saw it.
type fleetOutcome struct {
	spec    int
	latency time.Duration
	res     fleet.SessionResult
	err     error
	live    float64 // live heap when the result arrived, MiB
}

// runClients drives the closed loop for at least d, sampling the cycles
// completed so far every sampleEvery.
func (b *fleetBench) runClients(ctx context.Context, r *fleetRig, d time.Duration) ([]fleetOutcome, []sample) {
	deadline := time.Now().Add(d)
	var (
		mu     sync.Mutex
		outs   []fleetOutcome
		cycles uint64
		wg     sync.WaitGroup
	)
	samples := []sample{{time.Now(), cpuTime(), 0}}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				mu.Lock()
				samples = append(samples, sample{time.Now(), cpuTime(), cycles})
				mu.Unlock()
			}
		}
	}()
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				i, spec := b.next(c, k)
				start := time.Now()
				res, err := r.coord.Submit(ctx, spec)
				o := fleetOutcome{spec: i, latency: time.Since(start), res: res, err: err, live: liveHeapMiB()}
				mu.Lock()
				outs = append(outs, o)
				if err == nil {
					cycles += b.want[i].SimCycles
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	return outs, samples
}

// check verifies one outcome against the oracle.
func (b *fleetBench) check(o fleetOutcome) error {
	if o.err != nil {
		return fmt.Errorf("spec %d: %w", o.spec, o.err)
	}
	if !b.want[o.spec].matchesFleet(o.res) {
		return fmt.Errorf("spec %d: fingerprint %+v acc=%v, want %+v", o.spec, o.res.Fingerprint, o.res.Accuracy, b.want[o.spec])
	}
	return nil
}

// fleetBench submits specs through a fleet coordinator.
type fleetBench struct {
	seed  int64
	specs []farm.SessionSpec
	want  []fingerprint
	rig   *fleetRig // started by setup, closed by measure
}

// next returns client c's k-th submission and its index in the pool:
// spec (c + fleetClients·k) mod len(specs), so each client rotates through
// every kind. A chaos spec gets a fresh fault seed, drawn from the
// benchmark seed, on every submission. Faults never change what a session
// simulates, so the oracle still holds, and the latency tail then samples
// many fault patterns rather than the pool's few.
func (b *fleetBench) next(c, k int) (int, farm.SessionSpec) {
	i := (c + fleetClients*k) % len(b.specs)
	spec := b.specs[i]
	if spec.Chaos != nil {
		chaos := *spec.Chaos
		chaos.Seed = int64(splitmix(uint64(b.seed)<<20 ^ uint64(c)<<16 ^ uint64(k)))
		spec.Chaos = &chaos
	}
	return i, spec
}

// splitmix is the SplitMix64 finalizer: it decorrelates nearby inputs.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// setup times bringing the fleet up: farms started, host agents
// listening, every host enrolled.
func (b *fleetBench) setup(ctx context.Context) (float64, error) {
	var times []float64
	for i := 0; i < fleetSetupReps; i++ {
		start := time.Now()
		r, err := startFleet()
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if b.rig != nil {
			b.rig.close()
		}
		b.rig = r
	}
	return median(times), nil
}

func (b *fleetBench) measure(ctx context.Context, d time.Duration) (*window, error) {
	if b.rig == nil {
		return nil, errors.New("fleet not set up")
	}
	defer b.rig.close()
	w := &window{start: readUsage()}
	outs, samples := b.runClients(ctx, b.rig, d)
	w.end = readUsage()
	for i := 1; i < len(samples); i++ {
		p, q := samples[i-1], samples[i]
		w.slice(q.cycles-p.cycles, q.wall.Sub(p.wall), q.cpu-p.cpu)
	}
	w.byKind = map[string][]float64{}
	for _, o := range outs {
		w.attempted++
		if err := b.check(o); err != nil {
			w.fail(err)
			continue
		}
		w.latencies = append(w.latencies, o.latency.Seconds())
		w.live = append(w.live, o.live)
		w.boundaries += b.want[o.spec].boundaries()
		k := specKind(b.specs[o.spec])
		w.byKind[k] = append(w.byKind[k], o.latency.Seconds())
	}
	return w, nil
}

// traced measures the fleet layers from outside for half the window, then
// traces the stack layers with one router.Run per spec kind, lowered
// from the same specs, for the other half.
func (b *fleetBench) traced(ctx context.Context, d time.Duration) (*layerTotals, error) {
	lt := &layerTotals{}
	r, err := startFleet()
	if err != nil {
		return nil, err
	}
	p0, r0 := r.placements(), r.retries()
	u0 := readUsage()
	outs, _ := b.runClients(ctx, r, d/2)
	u1 := readUsage()
	lt.placements, lt.retries = r.placements()-p0, r.retries()-r0
	r.close()
	lt.cpu, lt.cpuWall, lt.gcs = u1.cpu-u0.cpu, u1.wall.Sub(u0.wall), u1.gcs-u0.gcs
	for _, o := range outs {
		lt.attempted++
		if err := b.check(o); err != nil {
			lt.fail(err)
			continue
		}
		lt.untraced++
		lt.fleetSessions++
		lt.fleetOverhead += float64(o.latency.Microseconds())/1000 - o.res.WallMS
	}

	deadline := time.Now().Add(d / 2)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for k := 0; k < fleetTracedPool; k++ {
			if err := lt.pair(ctx, b.specs[k], b.want[k], uint64(pass*fleetTracedPool+k+1), false); err != nil {
				return nil, fmt.Errorf("spec %d: %w", k, err)
			}
		}
	}
	return lt, nil
}
