package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/rtdbs"
	"siteselect/internal/scenario"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
)

// kinds lists the message kinds in netsim order (Kind 1 to 12).
var kinds = [...]netsim.Kind{
	netsim.KindObjectRequest, netsim.KindObjectShip, netsim.KindRecall,
	netsim.KindObjectReturn, netsim.KindClientForward, netsim.KindLockReply,
	netsim.KindTxnShip, netsim.KindTxnResult, netsim.KindLoadQuery,
	netsim.KindLoadReply, netsim.KindTxnSubmit, netsim.KindUserResult,
}

// simStats are the simulated outcomes of one system, or of a pass
// pooled over its systems. They are exact for a seed, so two passes of
// one workload and seed must be equal field for field, traced or not.
type simStats struct {
	Submitted, Committed, Missed, Aborted int64
	// Samples is the number of per-transaction response records found;
	// P50 and P99 are exact nearest-rank percentiles over them.
	Samples  int64
	P50, P99 time.Duration
	Messages [len(kinds)]int64
	Bytes    int64
	Events   int64
	Elapsed  time.Duration

	ForwardHops, Shipped, Decomposed, H1Rejects int64
	ShippedSubmitted, ShippedCommitted          int64
	CacheAccesses, CacheHits                    int64
	Recalls, Grants, Migrations                 int64
	DeniesExpired, DeniesDeadlock, Retries      int64
	DiskReads, DiskWrites                       int64
	BatchFlushes, Batched                       int64
	ReplicasInstalled, ReplicasShed, Forwarded  int64
	Restarts                                    int64
}

// engine is the part of the rtdbs systems the benchmark drives.
type engine interface {
	Run() (*rtdbs.Result, error)
	Env() *sim.Env
}

// instance is one constructed system plus the records the benchmark
// keeps from outside it.
type instance struct {
	cfg     config.Config
	eng     engine
	cluster *rtdbs.Cluster        // client-server engines
	occ     *rtdbs.CentralizedOCC // central-occ
	// occ response records, taken from the network: arrival time per
	// submitted transaction and every committed UserResult.
	arrivals map[txn.ID]time.Duration
	commits  []occCommit
}

type occCommit struct {
	id txn.ID
	at time.Duration
}

func build(cfg config.Config, system string) (*instance, error) {
	in := &instance{cfg: cfg}
	var err error
	switch system {
	case scenario.SystemLS:
		in.cluster, err = rtdbs.NewLoadSharing(cfg)
		in.eng = in.cluster
	case scenario.SystemCS:
		in.cluster, err = rtdbs.NewClientServer(cfg)
		in.eng = in.cluster
	case scenario.SystemCEOCC:
		in.occ, err = rtdbs.NewCentralizedOCC(cfg)
		in.eng = in.occ
		if err == nil {
			in.arrivals = make(map[txn.ID]time.Duration)
			in.occ.Net().SetTrace(in.observe)
		}
	default:
		return nil, fmt.Errorf("unsupported system %q", system)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// observe pairs central-occ submissions with their results.
func (in *instance) observe(m netsim.Message) {
	switch p := m.Payload.(type) {
	case proto.TxnSubmit:
		in.arrivals[p.T.ID] = p.T.Arrival
	case proto.UserResult:
		if p.Committed {
			in.commits = append(in.commits, occCommit{p.Txn, m.SentAt})
		}
	}
}

// responses returns the sorted arrival-to-commit times of the committed
// transactions that arrived after warm-up.
func (in *instance) responses() []time.Duration {
	var out []time.Duration
	if in.cluster != nil {
		for _, cl := range in.cluster.Clients() {
			for _, t := range cl.Tracked {
				if t.Status == txn.StatusCommitted && t.Arrival >= in.cfg.Warmup {
					out = append(out, t.Finished-t.Arrival)
				}
			}
		}
	} else {
		for _, c := range in.commits {
			if a := in.arrivals[c.id]; a >= in.cfg.Warmup {
				out = append(out, c.at-a)
			}
		}
	}
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func (in *instance) stats(res *rtdbs.Result) simStats {
	m := res.M
	resp := in.responses()
	s := simStats{
		Submitted: m.Submitted, Committed: m.Committed, Missed: m.Missed, Aborted: m.Aborted,
		Samples: int64(len(resp)), P50: quantile(resp, 0.50), P99: quantile(resp, 0.99),
		Bytes: res.TotalBytes, Events: in.eng.Env().Steps(), Elapsed: res.Elapsed,
		ForwardHops: res.ForwardHops, Shipped: m.ShippedTxns, Decomposed: m.DecomposedTxns,
		H1Rejects:     m.H1Rejections,
		CacheAccesses: m.CacheAccesses, CacheHits: m.CacheHits,
		Recalls: res.RecallsSent, Grants: res.GrantsShipped, Migrations: res.MigrationsStarted,
		DeniesExpired: res.DeniesExpired, DeniesDeadlock: res.DeniesDeadlock, Retries: res.Retries,
		DiskReads: res.ServerDiskReads, DiskWrites: res.ServerDiskWrites,
		BatchFlushes: res.BatchFlushes, Batched: res.BatchedRequests,
		ReplicasInstalled: res.ReplicasInstalled, ReplicasShed: res.ReplicasShed,
		Forwarded: res.RequestsForwarded,
	}
	s.ShippedSubmitted, s.ShippedCommitted = m.ShippedOutcomes()
	for i, k := range kinds {
		s.Messages[i] = res.Messages[k].Count
	}
	if in.occ != nil {
		s.Restarts = in.occ.Restarts
	}
	return s
}

// add sums o's counts into s. Percentiles do not add; the caller
// recomputes them from the pooled response records.
func (s *simStats) add(o simStats) {
	a, b := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := 0; i < a.NumField(); i++ {
		switch f := a.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(f.Int() + b.Field(i).Int())
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetInt(f.Index(j).Int() + b.Field(i).Index(j).Int())
			}
		}
	}
}

// system is one simulated system of a traced pass, kept for its
// host-side records.
type system struct {
	in  *instance
	res *rtdbs.Result
}

// pass is one set-up plus Run() of each of a workload's systems.
type pass struct {
	compile, build, run time.Duration
	// peakHeap is the heap high-water over set-up and run, above the
	// live heap measured before set-up.
	peakHeap uint64
	// each holds every system's statistics; stats pools them, with
	// percentiles over the pooled response records.
	each  []simStats
	stats simStats
	// Traced passes only.
	systems     []system
	sameInstant int64
	mem         [2]runtime.MemStats
	cpuNanos    map[string]float64
}

// runPass sets up and runs each of w's systems once, collecting garbage
// untimed before each. With traced set it turns on the simulator's
// transaction tracer, counts events from a step hook, profiles every
// Run() and diffs runtime.MemStats around the whole pass.
func runPass(w *workload, seed int64, traced bool) (*pass, error) {
	p := &pass{}
	if traced {
		runtime.GC()
		runtime.ReadMemStats(&p.mem[0])
		p.cpuNanos = map[string]float64{}
	}
	var resp []time.Duration
	var peak uint64
	for _, sd := range w.seeds(seed) {
		runtime.GC()
		heap := startHeapSampler()
		sys, err := runSystem(w, sd, traced, p)
		if hw := heap.Stop(); hw > peak {
			peak = hw
		}
		if err != nil {
			return p, err
		}
		s := sys.in.stats(sys.res)
		p.each = append(p.each, s)
		p.stats.add(s)
		resp = append(resp, sys.in.responses()...)
		if traced {
			p.systems = append(p.systems, sys)
		}
	}
	if traced {
		runtime.ReadMemStats(&p.mem[1])
	}
	slices.Sort(resp)
	p.stats.Samples = int64(len(resp))
	p.stats.P50, p.stats.P99 = quantile(resp, 0.50), quantile(resp, 0.99)
	p.peakHeap = peak
	return p, nil
}

// runSystem sets up and runs one system, adding its host times (and,
// traced, its event and CPU records) to p.
func runSystem(w *workload, seed int64, traced bool, p *pass) (system, error) {
	t0 := time.Now()
	cfg, name, err := w.compile(seed)
	if err != nil {
		return system{}, err
	}
	cfg.Trace = traced
	t1 := time.Now()
	in, err := build(cfg, name)
	if err != nil {
		return system{}, err
	}
	t2 := time.Now()
	var prof bytes.Buffer
	if traced {
		env := in.eng.Env()
		last := time.Duration(-1)
		env.SetStepHook(func() {
			if now := env.Now(); now == last {
				p.sameInstant++
			} else {
				last = now
			}
		})
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return system{}, err
		}
	}
	t3 := time.Now()
	res, err := run(in.eng)
	t4 := time.Now()
	p.compile += t1.Sub(t0)
	p.build += t2.Sub(t1)
	p.run += t4.Sub(t3)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return system{}, fmt.Errorf("Run: %w", err)
	}
	if traced {
		if err := addCPUNanos(p.cpuNanos, prof.Bytes()); err != nil {
			return system{}, err
		}
	}
	return system{in, res}, nil
}

// run calls e.Run(), turning a panic inside the simulator into an error
// so the run reports a failed operation instead of dying.
func run(e engine) (res *rtdbs.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return e.Run()
}

// setupOnly times compiling the workload and constructing its engines,
// then drops them unrun.
func setupOnly(w *workload, seed int64) (time.Duration, error) {
	var total time.Duration
	for _, sd := range w.seeds(seed) {
		runtime.GC()
		t0 := time.Now()
		cfg, system, err := w.compile(sd)
		if err != nil {
			return 0, err
		}
		if _, err := build(cfg, system); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return total, nil
}

// heapSampler tracks the heap high-water from a goroutine reading
// runtime/metrics, which does not stop the world.
type heapSampler struct {
	base, peak uint64
	stop, done chan struct{}
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{base: heapObjects(), stop: make(chan struct{}), done: make(chan struct{})}
	h.peak = h.base
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	if v := heapObjects(); v > h.peak {
		h.peak = v
	}
}

// Stop ends sampling, waits for the sampler goroutine to exit and
// returns the high-water above the starting heap.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	h.sample()
	return h.peak - h.base
}
