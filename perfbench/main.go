// Command perfbench is the co-simulation benchmark: closed-loop workloads
// over router.Run and the fleet control plane, timed end to end with
// tracing off, and split by layer in a separate traced run. See README.md.
//
// Usage:
//
//	go run . --workload sparse-inproc --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	outDir      string
	cpuProfile  string
	writeGolden string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "traffic and chaos seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measuring window in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.outDir, "out", "", "directory for the span file of a traced run (none if empty)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the untraced measuring window to this file")
	fs.StringVar(&o.writeGolden, "write-golden", "", "recompute the default-seed reference fingerprints into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if o.writeGolden != "" {
		b, err := writeGoldens(ctx)
		if err == nil {
			err = os.WriteFile(o.writeGolden, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := benchmark(ctx, w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// benchmark runs one workload and assembles its result line.
func benchmark(ctx context.Context, w workload, o options, stdout io.Writer) (result, error) {
	host := hostInfo()
	hb, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%t host=%s\n", w.name, o.seed, o.seconds, o.trace, hb)

	specs := w.specs(poolSeeds(w, o.seed))
	want, err := expectedFingerprints(ctx, w, o.seed, specs)
	if err != nil {
		return result{}, err
	}
	window := time.Duration(o.seconds) * time.Second
	var b bench
	if w.fleet {
		b = &fleetBench{seed: o.seed, specs: specs, want: want}
	} else {
		b = &soloBench{specs: specs, want: want}
	}

	if o.trace {
		lt, err := b.traced(ctx, window)
		if err != nil {
			return result{}, err
		}
		if o.outDir != "" {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return result{}, err
			}
			path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
			if err := writeSpans(path, lt.tracers); err != nil {
				return result{}, fmt.Errorf("writing spans: %w", err)
			}
			fmt.Fprintf(stdout, "spans: %s (%d kept, %d beyond the cap)\n", path, lt.spansKept(), lt.spansDropped())
		}
		lt.report(stdout)
		return lt.result()
	}

	setup, err := b.setup(ctx)
	if err != nil {
		return result{}, err
	}
	var stopProfile func()
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return result{}, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return result{}, err
		}
		stopProfile = func() { pprof.StopCPUProfile(); f.Close() }
	}
	win, err := b.measure(ctx, window)
	if stopProfile != nil {
		stopProfile()
	}
	if err != nil {
		return result{}, err
	}
	return win.result(stdout, setup)
}

// bench is one workload's driver: single sessions on this goroutine, or
// a fleet with its clients.
type bench interface {
	// setup times the workload's set-up several times and returns the
	// median in seconds; it leaves whatever measure needs ready.
	setup(ctx context.Context) (float64, error)
	// measure runs the closed loop with tracing off for at least window.
	measure(ctx context.Context, window time.Duration) (*window, error)
	// traced runs traced and untraced sessions side by side.
	traced(ctx context.Context, window time.Duration) (*layerTotals, error)
}

// window accumulates one untraced measuring window. The throughput
// metrics are medians over slices of the window (one session each for a
// single client, a fixed interval for the fleet), so a burst of host
// noise moves one slice rather than the whole result.
type window struct {
	latencies         []float64            // seconds per session
	rates, cpuRates   []float64            // simulated cycles per wall / CPU second, per slice
	live              []float64            // heap the last GC found live, after each session, MiB
	byKind            map[string][]float64 // fleet latencies by spec kind
	boundaries        uint64
	attempted, failed int
	errs              []error
	start, end        usage
}

func (w *window) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err)
	}
}

// slice records the throughput of one slice of the window.
func (w *window) slice(cycles uint64, wall, cpu time.Duration) {
	w.rates = append(w.rates, float64(cycles)/wall.Seconds())
	w.cpuRates = append(w.cpuRates, float64(cycles)/cpu.Seconds())
}

func (w *window) result(out io.Writer, setupS float64) (result, error) {
	wall := w.end.wall.Sub(w.start.wall).Seconds()
	cpu := (w.end.cpu - w.start.cpu).Seconds()
	p50 := median(w.latencies)
	tl, pct := tail(w.latencies)
	res := result{
		Correct:   w.failed == 0,
		Attempted: w.attempted,
		Failed:    w.failed,
		Metrics: map[string]metric{
			"sim_cycles_per_s":     {median(w.rates), "1/s"},
			"sim_cycles_per_cpu_s": {median(w.cpuRates), "1/s"},
			"session_s.p50":        {p50, "s"},
			"session_s.tail":       {tl, "s"},
			"setup_s":              {setupS, "s"},
			"allocs_per_boundary":  {float64(w.end.allocs-w.start.allocs) / float64(w.boundaries), "count"},
			"live_heap_mb":         {median(w.live), "MiB"},
		},
	}
	fmt.Fprintf(out, "sessions=%d failed=%d failed_frac=%g wall_s=%.3f cpu_s=%.3f host_steal_s=%.2f session_s.tail=p%.1f of %d sessions max_rss_mb=%.1f\n",
		w.attempted, w.failed, float64(w.failed)/float64(max(w.attempted, 1)), wall, cpu, (w.end.steal - w.start.steal).Seconds(), pct, len(w.latencies), maxRSSMiB())
	kinds := make([]string, 0, len(w.byKind))
	for k := range w.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(out, "session_s.p50 %s=%.4f of %d sessions\n", k, median(w.byKind[k]), len(w.byKind[k]))
	}
	for _, err := range w.errs {
		fmt.Fprintln(out, "session error:", err)
	}
	if len(w.latencies) == 0 || len(w.rates) == 0 {
		return res, errors.New("no session completed in the window")
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, nil
}
