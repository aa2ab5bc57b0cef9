package main

import (
	"slices"
	"time"

	"siteselect/internal/trace"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(a, b int64) float64 { return 100 * ratio(float64(a), float64(b)) }

func perTxn(n int64, s simStats) float64 { return ratio(float64(n), float64(s.Submitted)) }

func median[T time.Duration | uint64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd is what a user of the simulator sees: the paper's deadline
// metric and simulated response times, exact for a seed, plus the host
// cost of producing them, as medians over the passes of one run.
func endToEnd(s simStats, setups, runs []time.Duration, peaks []uint64) metricSet {
	m := metricSet{}
	m.put("success_pct", pct(s.Committed, s.Submitted), "%")
	m.put("resp_p50_s", s.P50.Seconds(), "s")
	m.put("resp_p99_s", s.P99.Seconds(), "s")
	m.put("msgs_per_txn", perTxn(sumMessages(s), s), "msgs/txn")
	m.put("setup_s", median(setups).Seconds(), "s")
	m.put("run_s", median(runs).Seconds(), "s")
	m.put("peak_heap_mb", float64(median(peaks))/(1<<20), "MB")
	return m
}

func sumMessages(s simStats) int64 {
	var n int64
	for _, c := range s.Messages {
		n += c
	}
	return n
}

// traceInputs is what the per-layer metrics are computed from: the
// traced pass, pooled over its systems, and the host time of the
// untraced pass beside it.
type traceInputs struct {
	s           simStats
	untracedRun time.Duration
	tracedRun   time.Duration
	compile     time.Duration
	build       time.Duration
	sameInstant int64
	cpu         map[string]float64
	// Host-side records read from the traced system after Run().
	serverUtil float64           // mean simulated CPU utilisation of the server shards
	batchIn    int64             // requests that entered a server batch scheduler
	traces     []*trace.TxnTrace // finished, measured transactions
	netUtil    float64
	bufferHit  float64
	commitsAll int64 // central-occ commits over the whole run
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// perLayer are the traced run's numbers, one group per module.
func perLayer(in traceInputs) metricSet {
	s := in.s
	m := metricSet{}
	m.put("sim.events", float64(s.Events), "count")
	m.put("sim.events_per_txn", perTxn(s.Events, s), "events/txn")
	m.put("sim.ns_per_event", ratio(float64(in.untracedRun.Nanoseconds()), float64(s.Events)), "ns")
	m.put("sim.same_instant_pct", pct(in.sameInstant, s.Events), "%")
	for i, k := range kinds {
		m.put("net.msgs."+k.String(), float64(s.Messages[i]), "count")
	}
	m.put("net.bytes_per_txn", perTxn(s.Bytes, s), "B/txn")
	m.put("net.util_pct", 100*in.netUtil, "%")
	m.put("server.denies_deadlock", float64(s.DeniesDeadlock), "count")
	m.put("server.denies_expired", float64(s.DeniesExpired), "count")
	m.put("cache.hit_pct", pct(s.CacheHits, s.CacheAccesses), "%")
	m.put("pagefile.buffer_hit_pct", 100*in.bufferHit, "%")
	m.put("pagefile.disk_reads_per_txn", perTxn(s.DiskReads, s), "reads/txn")
	m.put("pagefile.disk_writes_per_txn", perTxn(s.DiskWrites, s), "writes/txn")
	m.put("server.recalls_per_txn", perTxn(s.Recalls, s), "recalls/txn")
	m.put("server.grants_per_txn", perTxn(s.Grants, s), "grants/txn")
	m.put("server.migrations", float64(s.Migrations), "count")
	m.put("server.cpu_util_pct", 100*in.serverUtil, "%")
	m.put("client.retries", float64(s.Retries), "count")
	m.put("loadshare.shipped_pct", pct(s.ShippedSubmitted, s.Submitted), "%")
	m.put("loadshare.shipped_success_pct", pct(s.ShippedCommitted, s.ShippedSubmitted), "%")
	m.put("loadshare.h1_rejects", float64(s.H1Rejects), "count")
	m.put("loadshare.decomposed", float64(s.Decomposed), "count")
	m.put("forward.hops_per_txn", perTxn(s.ForwardHops, s), "hops/txn")
	m.put("batch.flushes", float64(s.BatchFlushes), "count")
	m.put("batch.batched_pct", pct(s.Batched, in.batchIn), "%")
	m.put("replica.installs", float64(s.ReplicasInstalled), "count")
	m.put("replica.sheds", float64(s.ReplicasShed), "count")
	m.put("shard.forwarded", float64(s.Forwarded), "count")
	m.put("occ.restarts_per_commit", ratio(float64(s.Restarts), float64(in.commitsAll)), "restarts/commit")
	m.put("resp.samples", float64(s.Samples), "count")

	// Mean simulated seconds per measured transaction in each slack
	// attribution bucket of the tracer (client-server engines only).
	var waits [trace.NumComponents]time.Duration
	var batchWait time.Duration
	n := len(in.traces)
	for _, tt := range in.traces {
		for c, d := range tt.Buckets {
			waits[c] += d
		}
		batchWait += tt.BatchWait
	}
	mean := func(d time.Duration) float64 { return ratio(d.Seconds(), float64(n)) }
	m.put("wait.queue_s", mean(waits[trace.CompQueue]), "s")
	m.put("wait.lock_s", mean(waits[trace.CompLockWait]), "s")
	m.put("wait.net_s", mean(waits[trace.CompNet]), "s")
	m.put("wait.exec_s", mean(waits[trace.CompExec]), "s")
	m.put("wait.retry_s", mean(waits[trace.CompRetry]), "s")
	m.put("wait.fanout_s", mean(waits[trace.CompFanout]), "s")
	m.put("wait.batch_s", mean(batchWait), "s")

	for _, l := range cpuLayers {
		m.put(l+".cpu_pct", in.cpu[l], "%")
	}
	m.put("setup.compile_s", in.compile.Seconds(), "s")
	m.put("setup.build_s", in.build.Seconds(), "s")
	m.put("runtime.allocs_per_txn", ratio(float64(in.mallocs), float64(s.Submitted)), "allocs/txn")
	m.put("runtime.alloc_bytes_per_txn", ratio(float64(in.allocBytes), float64(s.Submitted)), "B/txn")
	m.put("runtime.gc_cycles", float64(in.gcCycles), "count")
	m.put("runtime.gc_pause_ms", float64(in.gcPause.Nanoseconds())/1e6, "ms")
	m.put("trace.overhead_pct", 100*(ratio(in.tracedRun.Seconds(), in.untracedRun.Seconds())-1), "%")
	return m
}
