package main

import (
	"fmt"
	"math/rand"

	"repro/internal/farm"
)

// defaultSeed is the seed whose reference fingerprints are committed in
// golden.json.
const defaultSeed = 1

// workload is one closed-loop traffic mix. Its sessions cycle through a
// small pool of specs drawn from the benchmark seed.
type workload struct {
	name string
	// fleet workloads submit through a fleet coordinator; the others run
	// one router.Run per session on the benchmark's goroutine.
	fleet bool
	specs func(seeds []int64) []farm.SessionSpec
}

// Pool sizes: enough distinct traffic per run that one seed's packet mix
// does not decide the result; the fleet's holds eight specs of each kind.
const (
	soloPool  = 8
	fleetPool = 24
)

var workloads = []workload{
	{
		// Fig. 5 regime: sparse traffic (one packet per port every 10000
		// cycles) at T_sync=1000, so most HDL cycles are idle and the
		// per-cycle kernel cost plus the RTOS tick advance dominate.
		// In-process, because a socket link's spread hides that cost.
		name: "sparse-inproc",
		specs: func(seeds []int64) []farm.SessionSpec {
			return eachSeed(seeds, func(s int64) farm.SessionSpec {
				return farm.SessionSpec{
					Transport: "inproc",
					TSync:     1000,
					TB:        &farm.TBSpec{Period: 10000, PacketsPerPort: 60, Seed: s},
				}
			})
		},
	},
	{
		// Fig. 7 regime below the accuracy knee: the default testbench
		// (period 1250, 4-packet FIFOs) at T_sync=4000 with every packet
		// checksummed on the ISS and the batch layer on. Few idle cycles,
		// so board work, the endpoint codec and batching dominate.
		name: "dense-batch",
		specs: func(seeds []int64) []farm.SessionSpec {
			return eachSeed(seeds, func(s int64) farm.SessionSpec {
				return farm.SessionSpec{
					Transport: "inproc",
					TSync:     4000,
					Batch:     true,
					TB:        &farm.TBSpec{PacketsPerPort: 250, Seed: s},
				}
			})
		},
	},
	{
		// Fig. 6 regime at T_sync=1: a rendezvous every cycle over the
		// shared-memory rings, so per-boundary endpoint, transport and
		// wake-up cost dominate. Both ring waiters spin, so CPU time
		// exceeds wall time here.
		name: "lockstep-shm",
		specs: func(seeds []int64) []farm.SessionSpec {
			return eachSeed(seeds, func(s int64) farm.SessionSpec {
				return farm.SessionSpec{
					Transport: "shm",
					TSync:     1,
					TB:        &farm.TBSpec{PacketsPerPort: 20, Seed: s},
				}
			})
		},
	},
	{
		// Multi-session service: specs placed by a fleet coordinator on
		// two one-worker farm hosts over tcp mux links, rotating plain,
		// chaos+resilience and adaptive+batch+resilience sessions. The
		// only workload that runs fleet, farm, session, chaos and adaptive.
		name:  "fleet-mixed",
		fleet: true,
		specs: func(seeds []int64) []farm.SessionSpec {
			out := make([]farm.SessionSpec, len(seeds))
			for i, s := range seeds {
				spec := farm.SessionSpec{
					Transport: "tcp",
					TB:        &farm.TBSpec{PacketsPerPort: 20, Seed: s},
				}
				switch i % 3 {
				case 1:
					spec.Chaos = &farm.ChaosSpec{Seed: s ^ 0x5a5a, Drop: 0.01, Duplicate: 0.01, Corrupt: 0.01}
					spec.Resilience = &farm.ResilienceSpec{RetransmitTimeoutMS: 10}
				case 2:
					// Sparse traffic, so the lookahead promises let
					// boundaries be elided; fewer packets keep its
					// simulated cycles near the other kinds'.
					spec.TB.Period = 10000
					spec.TB.PacketsPerPort = 6
					spec.Adaptive = true
					spec.Batch = true
					spec.Resilience = &farm.ResilienceSpec{}
				}
				out[i] = spec
			}
			return out
		},
	},
}

// specKind names a spec's stack shape, as the fleet rotation does.
func specKind(s farm.SessionSpec) string {
	switch {
	case s.Chaos != nil:
		return "chaos"
	case s.Adaptive:
		return "adaptive"
	default:
		return "plain"
	}
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// poolSeeds draws the traffic seeds of a workload's spec pool from the
// benchmark seed.
func poolSeeds(w workload, seed int64) []int64 {
	n := soloPool
	if w.fleet {
		n = fleetPool
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + rng.Int63n(1<<31)
	}
	return out
}

func eachSeed(seeds []int64, mk func(int64) farm.SessionSpec) []farm.SessionSpec {
	out := make([]farm.SessionSpec, len(seeds))
	for i, s := range seeds {
		out[i] = mk(s)
	}
	return out
}
