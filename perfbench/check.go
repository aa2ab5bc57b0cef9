package main

import (
	"fmt"
	"reflect"
	"slices"
)

// checkError is a failed output check, named so a failing run says
// which property broke.
type checkError struct {
	name, detail string
}

func (e *checkError) Error() string { return "check " + e.name + " failed: " + e.detail }

func failed(name, format string, args ...any) error {
	return &checkError{name: name, detail: fmt.Sprintf(format, args...)}
}

// minCommits keeps at least ten committed samples beyond resp_p99_s.
const minCommits = 1000

// mechanisms are the counters that show a workload's mechanism ran.
var mechanisms = map[string]func(simStats) int64{
	"batch.flushes":     func(s simStats) int64 { return s.BatchFlushes },
	"replica.installs":  func(s simStats) int64 { return s.ReplicasInstalled },
	"replica.sheds":     func(s simStats) int64 { return s.ReplicasShed },
	"forward.hops":      func(s simStats) int64 { return s.ForwardHops },
	"loadshare.shipped": func(s simStats) int64 { return s.Shipped },
}

// quiet are the mechanisms that must read 0 where a workload does not
// list them in fires.
var quiet = []string{"batch.flushes", "replica.installs", "replica.sheds"}

// checkPass checks one pass's outputs against properties that hold at
// every seed. Run() returning nil, checked by the caller, already
// covers the engines' own lock, cache and trace audits.
func checkPass(w *workload, s simStats) error {
	if s.Submitted != s.Committed+s.Missed+s.Aborted {
		return failed("conservation", "submitted %d != committed %d + missed %d + aborted %d",
			s.Submitted, s.Committed, s.Missed, s.Aborted)
	}
	if s.Samples != s.Committed {
		return failed("response-records", "%d per-transaction response records for %d commits",
			s.Samples, s.Committed)
	}
	if s.Committed < minCommits {
		return failed("min-commits", "%d commits, want at least %d for resp_p99_s", s.Committed, minCommits)
	}
	if s.P50 <= 0 || s.P99 < s.P50 {
		return failed("response-order", "p50 %v, p99 %v", s.P50, s.P99)
	}
	for _, name := range w.fires {
		if mechanisms[name](s) <= 0 {
			return failed("mechanism", "%s on %s is %d, want > 0", name, w.name, mechanisms[name](s))
		}
	}
	for _, name := range quiet {
		if n := mechanisms[name](s); n != 0 && !slices.Contains(w.fires, name) {
			return failed("mechanism", "%s on %s is %d, want 0", name, w.name, n)
		}
	}
	return nil
}

// checkSame requires two passes of one workload and seed to agree on
// every simulated statistic; name says which pair is compared.
func checkSame(name string, want, got simStats) error {
	a, b := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < a.NumField(); i++ {
		if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			return failed(name, "%s: %v, then %v", a.Type().Field(i).Name, a.Field(i), b.Field(i))
		}
	}
	return nil
}
