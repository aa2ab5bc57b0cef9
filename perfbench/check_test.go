package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"
	"time"
)

// valid is a pass every check accepts on a workload that fires nothing.
func valid() simStats {
	return simStats{
		Submitted: 2000, Committed: 1500, Missed: 400, Aborted: 100,
		Samples: 1500, P50: time.Second, P99: 5 * time.Second,
	}
}

func wantCheck(t *testing.T, err error, name string) {
	t.Helper()
	var ce *checkError
	if !errors.As(err, &ce) || ce.name != name {
		t.Fatalf("got %v, want check %q to fail", err, name)
	}
}

func TestCheckPassAcceptsValid(t *testing.T) {
	if err := checkPass(workloadByName("swarm-50k"), valid()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFiresOnBrokenConservation(t *testing.T) {
	s := valid()
	s.Missed--
	wantCheck(t, checkPass(workloadByName("swarm-50k"), s), "conservation")
}

func TestCheckFiresOnTracedMismatch(t *testing.T) {
	traced := valid()
	if err := checkSame("traced-identity", valid(), traced); err != nil {
		t.Fatal(err)
	}
	traced.Messages[3]++
	wantCheck(t, checkSame("traced-identity", valid(), traced), "traced-identity")
}

func TestCheckFiresOnMissingRecords(t *testing.T) {
	s := valid()
	s.Samples--
	wantCheck(t, checkPass(workloadByName("swarm-50k"), s), "response-records")
}

func TestCheckFiresOnMechanism(t *testing.T) {
	// hotspot-sharded must batch and replicate.
	wantCheck(t, checkPass(workloadByName("hotspot-sharded"), valid()), "mechanism")
	// Every other workload must not.
	s := valid()
	s.ReplicasShed = 1
	wantCheck(t, checkPass(workloadByName("central-occ"), s), "mechanism")
	// paper-ls must forward and ship.
	s = valid()
	s.ForwardHops = 1
	wantCheck(t, checkPass(workloadByName("paper-ls"), s), "mechanism")
	s.Shipped = 1
	if err := checkPass(workloadByName("paper-ls"), s); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i))
	}
	if got := quantile(ds, 0.5); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	if got := quantile(ds, 0.99); got != 990 {
		t.Errorf("p99 = %d, want 990", got)
	}
	if got := quantile(ds[:1], 0.99); got != 1 {
		t.Errorf("p99 of one = %d, want 1", got)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metrics and the
// declared ones in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got metricSet, want []struct{ Name, Unit string }) {
		t.Helper()
		for _, d := range want {
			m, ok := got[d.Name]
			if !ok {
				t.Errorf("%s metric %s declared but not printed", kind, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s metric %s: unit %q printed, %q declared", kind, d.Name, m.Unit, d.Unit)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics printed, %d declared", kind, len(got), len(want))
		}
	}
	compare("end_to_end", endToEnd(simStats{}, nil, nil, nil), decl.EndToEnd)
	compare("per_layer", perLayer(traceInputs{}), decl.PerLayer)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !slices.Equal(names, have) {
		t.Errorf("workloads declared %v, defined %v", names, have)
	}
}

//go:noinline
func spin(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestCPUSharesFoldsProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	nanos := map[string]float64{}
	if err := addCPUNanos(nanos, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	shares := cpuShares(nanos)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	// spin and its time calls are this package plus runtime/time code.
	if shares["trace"]+shares["runtime"]+shares["other"] < 90 {
		t.Errorf("busy loop not attributed: %v", shares)
	}
	if shares["trace"] < 30 {
		t.Errorf("this package's share %v, want most of the loop", shares["trace"])
	}
}

func TestHeapSamplerSeesAllocation(t *testing.T) {
	runtime.GC()
	h := startHeapSampler()
	buf := make([]byte, 64<<20)
	time.Sleep(5 * time.Millisecond)
	hw := h.Stop()
	runtime.KeepAlive(buf)
	if hw < 32<<20 {
		t.Fatalf("high-water %d bytes after a 64 MiB allocation", hw)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"siteselect/internal/sim.(*Env).Step":          "sim",
		"siteselect/internal/sim.(*Mailbox[...]).Put":  "sim",
		"siteselect/internal/sched.(*EDFQueue).Push":   "client",
		"siteselect/internal/metrics.(*Collector).Foo": "other",
		"math/rand.(*rngSource).Uint64":                "rng",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"main.runPass.func1":                           "trace",
		"sort.insertionSort":                           "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
