package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the result line must agree with.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runShort runs the benchmark for one second and returns its result line.
func runShort(t *testing.T, workload string, seed int64, trace int) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--seconds", "1", "--trace", strconv.Itoa(trace)}
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("%v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
	}
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%v: last line is not a result: %v\n%s", args, err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%v: correct=%v attempted=%d failed=%d\n%s", args, r.Correct, r.Attempted, r.Failed, out.String())
	}
	return r
}

func checkMetrics(t *testing.T, r result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestWorkloadsShort runs every workload briefly, untraced and traced, at
// the default seed, where every session is checked against golden.json.
func TestWorkloadsShort(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			checkMetrics(t, runShort(t, w.Name, defaultSeed, 0), s.EndToEnd)
			checkMetrics(t, runShort(t, w.Name, defaultSeed, 1), s.PerLayer)
		})
	}
}

// TestReferenceOracle runs a non-default seed, where sessions are checked
// against fresh stripped-down reference runs instead of goldens.
func TestReferenceOracle(t *testing.T) {
	runShort(t, "sparse-inproc", 2, 0)
	runShort(t, "fleet-mixed", 2, 1)
}

// TestGoldensCurrent proves golden.json is what the reference path
// computes today.
func TestGoldensCurrent(t *testing.T) {
	b, err := writeGoldens(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, goldenJSON) {
		t.Fatal("golden.json differs from the reference runs; a simulated result changed")
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:5]); v != 5 || p != 100 {
		t.Errorf("tail of 1..5 = %v at p%v, want the maximum", v, p)
	}
}
