// Command perfbench is the repository benchmark. It builds one workload
// of the simulator from a seed, times set-up and Run() separately,
// checks the outputs, and prints the end-to-end metrics as one JSON
// line; with -trace 1 it instead prints the per-layer metrics of a
// separate traced run of the same workload and seed. See README.md.
//
//	go run . -workload paper-ls -seed 1 -seconds 25 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// report is the benchmark's last line of output.
type report struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// maxSetupSamples bounds the set-up-only repetitions that follow the
// timed passes; set-up is milliseconds on most workloads.
const maxSetupSamples = 30

func main() {
	name := flag.String("workload", "paper-ls", "workload to run")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are built from")
	seconds := flag.Int("seconds", 25, "host seconds to measure for")
	traced := flag.Int("trace", 0, "0: end-to-end metrics of untraced passes; 1: per-layer metrics of a traced pass")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg, system, err := w.compile(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench commit=%s nproc=%d gomaxprocs=%d go=%s workload=%s engine=%s seed=%d systems=%d clients=%d simulated_h=%.3f\n",
		commit(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.name, system, *seed,
		len(w.seeds(*seed)), cfg.NumClients, (cfg.Duration + cfg.Drain).Hours())

	var rep report
	if *traced == 1 {
		rep, err = layers(w, *seed)
	} else {
		rep, err = measure(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ce *checkError
		if !errors.As(err, &ce) {
			rep.Failed++
		}
	}
	rep.Correct = err == nil
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// measure repeats passes of w (untimed garbage collection, then set-up
// and Run() of each of its systems) for most of budget, spends the rest
// on up to maxSetupSamples set-up samples in all, and reports medians. Every pass must
// reproduce the first pass's simulated statistics exactly.
func measure(w *workload, seed int64, budget time.Duration) (report, error) {
	start := time.Now()
	rep := report{Metrics: metricSet{}}
	var firstPass *pass
	var setups, runs []time.Duration
	var peaks []uint64
	for {
		rep.Attempted++
		t := time.Now()
		p, err := runPass(w, seed, false)
		if err != nil {
			return rep, err
		}
		last := time.Since(t)
		if len(runs) == 0 {
			firstPass = p
			if err := checkAll(w, p); err != nil {
				return rep, err
			}
		} else if err := samePass("repeatable", firstPass, p); err != nil {
			return rep, err
		}
		setups = append(setups, p.compile+p.build)
		runs = append(runs, p.run)
		peaks = append(peaks, p.peakHeap)
		// Stop when another pass would not fit beside the set-up-only
		// repetitions still to come (at most a fifth of the budget).
		left := time.Duration(max(maxSetupSamples-len(setups), 0))
		reserve := min(budget/5, left*(p.compile+p.build))
		if time.Since(start)+last+reserve > budget {
			break
		}
	}
	for len(setups) < maxSetupSamples {
		t := time.Now()
		d, err := setupOnly(w, seed)
		if err != nil {
			return rep, err
		}
		setups = append(setups, d)
		if time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	fmt.Printf("passes=%d setups=%d resp_samples=%d run_s=%v setup_s=%v\n",
		len(runs), len(setups), firstPass.stats.Samples, runs, median(setups))
	rep.Metrics = endToEnd(firstPass.stats, setups, runs, peaks)
	return rep, nil
}

// checkAll checks every system of a pass and their pooled statistics.
func checkAll(w *workload, p *pass) error {
	for _, s := range append(p.each, p.stats) {
		if err := checkPass(w, s); err != nil {
			return err
		}
	}
	return nil
}

// samePass requires two passes to agree on every system's simulated
// statistics.
func samePass(name string, a, b *pass) error {
	for i := range a.each {
		if err := checkSame(name, a.each[i], b.each[i]); err != nil {
			return err
		}
	}
	return checkSame(name, a.stats, b.stats)
}

// layers runs one untraced and one traced pass of w and reports the
// per-layer metrics of the traced one. The two must agree on every
// simulated statistic.
func layers(w *workload, seed int64) (report, error) {
	rep := report{Attempted: 2, Metrics: metricSet{}}
	u, err := runPass(w, seed, false)
	if err != nil {
		return rep, err
	}
	if err := checkAll(w, u); err != nil {
		return rep, err
	}
	t, err := runPass(w, seed, true)
	if err != nil {
		return rep, err
	}
	if err := samePass("traced-identity", u, t); err != nil {
		return rep, err
	}
	in := traceInputs{
		s: t.stats, untracedRun: u.run, tracedRun: t.run,
		compile: t.compile, build: t.build, sameInstant: t.sameInstant, cpu: cpuShares(t.cpuNanos),
		mallocs:    t.mem[1].Mallocs - t.mem[0].Mallocs,
		allocBytes: t.mem[1].TotalAlloc - t.mem[0].TotalAlloc,
		gcCycles:   (t.mem[1].NumGC - t.mem[1].NumForcedGC) - (t.mem[0].NumGC - t.mem[0].NumForcedGC),
		gcPause:    time.Duration(t.mem[1].PauseTotalNs - t.mem[0].PauseTotalNs),
	}
	n := float64(len(t.systems))
	for _, sys := range t.systems {
		in.netUtil += sys.res.NetUtilization / n
		in.bufferHit += sys.res.ServerBufferHitRate / n
		if c := sys.in.cluster; c != nil {
			for _, sv := range c.Servers() {
				in.serverUtil += sv.CPUUtilization() / float64(len(c.Servers())) / n
				in.batchIn += sv.Batcher().Entered
			}
			for _, tt := range c.Tracer().Traces() {
				if tt.Done && tt.Arrival >= sys.in.cfg.Warmup {
					in.traces = append(in.traces, tt)
				}
			}
		} else {
			in.commitsAll += int64(len(sys.in.commits))
		}
	}
	rep.Metrics = perLayer(in)
	return rep, nil
}
