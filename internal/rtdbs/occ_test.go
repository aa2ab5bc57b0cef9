package rtdbs

import (
	"testing"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/netsim"
	"siteselect/internal/proto"
	"siteselect/internal/txn"
)

// occDigest is the exact, host-independent fingerprint of one
// CentralizedOCC run: kernel events, restarts, validation outcomes,
// transaction outcomes, messages and server disk I/O.
type occDigest struct {
	steps, restarts                int64
	validations, conflicts         int64
	submitted, committed, missed   int64
	messages, diskReads, diskWrite int64
}

func runOCCDigest(t *testing.T, cfg config.Config) occDigest {
	t.Helper()
	oc, err := NewCentralizedOCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return occDigest{
		steps:       oc.Env().Steps(),
		restarts:    oc.Restarts,
		validations: oc.Validator().Validations,
		conflicts:   oc.Validator().Conflicts,
		submitted:   res.M.Submitted,
		committed:   res.M.Committed,
		missed:      res.M.Missed,
		messages:    res.TotalMessages,
		diskReads:   res.ServerDiskReads,
		diskWrite:   res.ServerDiskWrites,
	}
}

// TestCentralizedOCCDigest pins a contended optimistic run event for
// event: 40 terminals at 20% updates restart hundreds of times, so any
// change to the order of slot grants, CPU grants, page faults or
// validations moves at least one of these counts. Re-implementing the
// engine must leave the digest exactly as it is.
func TestCentralizedOCCDigest(t *testing.T) {
	cfg := config.DefaultCentralized(40, 0.2)
	cfg.Duration = 20 * time.Minute
	got := runOCCDigest(t, cfg)
	want := occDigest{
		steps: 153234, restarts: 370,
		validations: 5088, conflicts: 1070,
		submitted: 2444, committed: 2051, missed: 393,
		messages: 9468, diskReads: 22193, diskWrite: 4783,
	}
	if got != want {
		t.Fatalf("OCC digest moved:\n got %+v\nwant %+v", got, want)
	}
}

// TestCentralizedOCCScheduling checks that the thread-slot queue follows
// Config.Scheduling. With one server thread held by an early long
// transaction, two later arrivals queue for the slot: the one with the
// earlier deadline arrives second, so EDF serves it first and FCFS
// serves it last.
func TestCentralizedOCCScheduling(t *testing.T) {
	for _, tc := range []struct {
		sched       config.SchedPolicy
		earlyFirst  bool
		description string
	}{
		{config.SchedEDF, false, "EDF serves the later arrival's earlier deadline first"},
		{config.SchedFCFS, true, "FCFS serves the earlier arrival first"},
	} {
		cfg := config.DefaultCentralized(1, 0)
		cfg.ServerThreads = 1
		cfg.Scheduling = tc.sched
		cfg.Duration = time.Millisecond // no generated submissions
		cfg.Warmup = 0
		oc, err := NewCentralizedOCC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		submit := func(id txn.ID, arrival, deadline, length time.Duration, obj lockmgr.ObjectID) *txn.Transaction {
			tx := &txn.Transaction{
				ID: id, Origin: 1, Arrival: arrival, Deadline: deadline,
				Length: length, Ops: []txn.Op{{Obj: obj}}, Status: txn.StatusPending,
			}
			oc.Env().At(arrival, func() {
				oc.inbox.Put(netsim.Message{Kind: netsim.KindTxnSubmit, Payload: proto.TxnSubmit{T: tx}})
			})
			return tx
		}
		submit(1, 0, time.Hour, time.Second, 1)
		early := submit(2, 10*time.Millisecond, 100*time.Second, 10*time.Millisecond, 2)
		late := submit(3, 20*time.Millisecond, 50*time.Second, 10*time.Millisecond, 3)
		oc.Start()
		oc.Env().RunAll()
		if early.Status != txn.StatusCommitted || late.Status != txn.StatusCommitted {
			t.Fatalf("%s: statuses %v/%v, want both committed", tc.description, early.Status, late.Status)
		}
		if got := early.Finished < late.Finished; got != tc.earlyFirst {
			t.Errorf("%s: early arrival finished at %v, late at %v",
				tc.description, early.Finished, late.Finished)
		}
		oc.Env().Close()
	}
}
