package rtdbs

import (
	"encoding/binary"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/occ"
	"siteselect/internal/txn"
)

// CentralizedOCC is the optimistic variant of the centralized system —
// the concurrency-control study the paper's conclusion defers to future
// work. Transactions execute speculatively without locks and validate
// at commit; a validation conflict restarts the transaction while its
// deadline still permits.
type CentralizedOCC struct {
	ceCore

	valid *occ.Validator
	// txnFree recycles finished transaction machines.
	txnFree []*occTxnMachine

	// Restarts counts read-phase re-executions after failed validation.
	Restarts int64
}

// NewCentralizedOCC builds the optimistic centralized system.
func NewCentralizedOCC(cfg config.Config) (*CentralizedOCC, error) {
	ce := &CentralizedOCC{}
	if err := ce.init(cfg); err != nil {
		return nil, err
	}
	ce.spawnTxn = ce.spawn
	ce.valid = occ.NewValidator(cfg.DBSize)
	return ce, nil
}

// Validator exposes the validation counters.
func (ce *CentralizedOCC) Validator() *occ.Validator { return ce.valid }

// spawn starts a pooled optimistic transaction machine for t.
func (ce *CentralizedOCC) spawn(t *txn.Transaction) {
	var x *occTxnMachine
	if n := len(ce.txnFree); n > 0 {
		x = ce.txnFree[n-1]
		ce.txnFree[n-1] = nil
		ce.txnFree = ce.txnFree[:n-1]
	} else {
		x = &occTxnMachine{}
	}
	*x = occTxnMachine{
		ceTxn: ceTxn{core: &ce.ceCore, t: t, frames: x.frames[:0]},
		ce:    ce, objs: x.objs[:0], writes: x.writes[:0], snapshot: x.snapshot[:0],
	}
	ce.env.Spawn(&x.task, x)
}

// occTxnMachine executes one transaction optimistically: admission to a
// thread slot, then attempts of a speculative read phase (the page
// fetch, holding no locks), the compute phase, and serialized
// validation. A conflict restarts the read phase while the deadline
// still allows a full re-execution.
type occTxnMachine struct {
	ceTxn
	ce *CentralizedOCC
	pc uint8

	objs     []lockmgr.ObjectID
	writes   []bool
	snapshot []int64
}

const (
	osAdmit uint8 = iota
	osAttempt
	osFetch
	osComputed
	osDone
)

func (m *occTxnMachine) Resume() {
	for m.pc != osDone {
		if m.step() {
			return
		}
	}
	m.task.Detach()
	clear(m.frames)
	m.ce.txnFree = append(m.ce.txnFree, m)
}

// step runs one state; true means the task parked.
func (m *occTxnMachine) step() bool {
	ce, t := m.ce, m.t
	switch m.pc {
	case osAdmit:
		done, ok := m.admit()
		if !done {
			return true
		}
		if !ok {
			m.finish(false)
			return false
		}
		t.Status = txn.StatusRunning
		for _, op := range t.Ops {
			m.objs = append(m.objs, op.Obj)
			m.writes = append(m.writes, op.Write)
		}
		m.pc = osAttempt
	case osAttempt:
		if m.task.Now() > t.Deadline {
			m.finish(false)
			return false
		}
		m.snapshot = ce.valid.ReadSet(m.snapshot, m.objs)
		m.opIdx = 0
		m.pc = osFetch
	case osFetch:
		done, ok := m.fetch()
		if !done {
			return true
		}
		if !ok {
			m.finish(false)
			return false
		}
		m.pc = osComputed
		m.task.Sleep(t.Length)
		return true
	case osComputed:
		if m.task.Now() > t.Deadline {
			m.unpinAll()
			m.finish(false)
			return false
		}
		// Validation and write phase: serialized, atomic in virtual time.
		if ce.valid.Validate(m.objs, m.snapshot, m.writes) {
			for i, obj := range m.objs {
				dirty := m.writes[i]
				if dirty {
					binary.LittleEndian.PutUint64(m.frames[i].Data, uint64(ce.valid.Version(obj)))
				}
				ce.pool.Unpin(m.frames[i], dirty)
			}
			m.finish(true)
			return false
		}
		m.unpinAll()
		// Restart only while a full re-execution can still fit.
		if m.task.Now()+t.Length > t.Deadline {
			m.finish(false)
			return false
		}
		ce.Restarts++
		m.pc = osAttempt
	}
	return false
}

// finish reports the outcome to the terminal, then frees the thread
// slot.
func (m *occTxnMachine) finish(committed bool) {
	m.report(committed)
	m.releaseSlot()
	m.pc = osDone
}

// Run executes the full experiment.
func (ce *CentralizedOCC) Run() (*Result, error) {
	ce.Start()
	ce.env.Run(ce.cfg.Duration + ce.cfg.Drain)
	res := ce.collect()
	ce.env.Close()
	return res, nil
}
