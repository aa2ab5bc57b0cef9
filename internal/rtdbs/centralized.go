package rtdbs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/lockmgr"
	"siteselect/internal/metrics"
	"siteselect/internal/netsim"
	"siteselect/internal/pagefile"
	"siteselect/internal/proto"
	"siteselect/internal/rng"
	"siteselect/internal/sim"
	"siteselect/internal/txn"
	"siteselect/internal/wal"
)

// ceCore is the plumbing both centralized engines share: the LAN, the
// server's disk, buffer pool, thread slots and CPU, the submission inbox
// and the terminals, plus the terminal, drain and dispatch machines that
// drive them. Only the transaction machine differs between strict 2PL
// (Centralized) and optimistic validation (CentralizedOCC); the
// dispatcher hands each arriving transaction to spawnTxn.
type ceCore struct {
	cfg config.Config

	env   *sim.Env
	net   *netsim.Network
	m     *metrics.Collector
	disk  *pagefile.Disk
	pool  *pagefile.BufferPool
	slots *sim.Resource
	cpu   *sim.Resource

	inbox     *sim.Mailbox[netsim.Message]
	terminals []*terminal

	spawnTxn func(t *txn.Transaction)
}

type terminal struct {
	id      netsim.SiteID
	inbox   *sim.Mailbox[netsim.Message]
	gen     txn.Source
	tracked []*txn.Transaction
}

// init builds the shared plumbing for cfg.
func (ce *ceCore) init(cfg config.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	env := sim.NewEnv()
	disk := pagefile.NewDisk(env, cfg.DBSize, pagefile.DiskConfig{
		ReadTime:  cfg.DiskRead,
		WriteTime: cfg.DiskWrite,
	})
	*ce = ceCore{
		cfg: cfg,
		env: env,
		net: netsim.New(env, netsim.Config{
			Latency:      cfg.NetLatency,
			BandwidthBps: cfg.NetBandwidthBps,
			Switched:     cfg.Topology == config.TopologySwitched,
		}),
		m:     &metrics.Collector{},
		disk:  disk,
		pool:  pagefile.NewBufferPool(env, disk, cfg.ServerMemory),
		slots: sim.NewResource(env, cfg.ServerThreads),
		cpu:   sim.NewResource(env, 1),
		inbox: sim.NewMailbox[netsim.Message](env),
	}
	root := rng.NewStream(cfg.Seed)
	var nextID txn.ID
	newID := func() txn.ID { nextID++; return nextID }
	for i := 1; i <= cfg.NumClients; i++ {
		ce.terminals = append(ce.terminals, &terminal{
			id:    netsim.SiteID(i),
			inbox: sim.NewMailbox[netsim.Message](env),
			gen:   newGenerator(root, cfg, i, newID),
		})
	}
	return nil
}

// Env exposes the simulation environment.
func (ce *ceCore) Env() *sim.Env { return ce.env }

// Net exposes the simulated LAN.
func (ce *ceCore) Net() *netsim.Network { return ce.net }

// Metrics exposes the live collector.
func (ce *ceCore) Metrics() *metrics.Collector { return ce.m }

// Start spawns the server dispatcher and the terminal machines.
func (ce *ceCore) Start() {
	s := &ceServeMachine{ce: ce}
	ce.env.Spawn(&s.task, s)
	for _, term := range ce.terminals {
		tm := &ceTermMachine{ce: ce, term: term}
		ce.env.Spawn(&tm.task, tm)
		dm := &ceDrainMachine{term: term}
		ce.env.Spawn(&dm.task, dm)
	}
}

// priority is t's place in the slot and CPU queues: its deadline under
// EDF, its arrival time under FCFS.
func (ce *ceCore) priority(t *txn.Transaction) float64 {
	if ce.cfg.Scheduling == config.SchedFCFS {
		return t.Arrival.Seconds()
	}
	return t.Deadline.Seconds()
}

// ceTxn is the part of a transaction machine that both centralized
// engines share: the transaction and its queue priority, admission to a
// thread slot, the pass that pins the page of every object in the
// access set, and the result. Each engine's machine embeds it and
// sequences these steps around its own concurrency control.
type ceTxn struct {
	task sim.Task
	core *ceCore
	t    *txn.Transaction

	prio      float64
	slotWait  bool
	slotHeld  bool
	opIdx     int
	accessing bool
	access    accessOp
	frames    []*pagefile.Frame
}

// admit takes a thread slot, queued by the transaction's priority and
// abandoned at its deadline. Call it until it reports done; ok reports
// whether the slot is held.
func (x *ceTxn) admit() (done, ok bool) {
	if x.slotWait {
		x.slotWait = false
		x.slotHeld = !x.task.ResTimedOut()
		return true, x.slotHeld
	}
	x.prio = x.core.priority(x.t)
	slack := x.t.Deadline - x.task.Now()
	if slack <= 0 {
		return true, false
	}
	if x.task.AcquireTimeout(x.core.slots, x.prio, slack) != sim.AcquireGranted {
		x.slotWait = true
		return false, false
	}
	x.slotHeld = true
	return true, true
}

// fetch pins the page of each object from opIdx on, in access order,
// one accessOp each (buffer hits are free; misses queue on the disk). A
// transaction found late before an access is abandoned rather than
// allowed to keep consuming the CPU and disk. Call it until it reports
// done; when ok is false the pages pinned so far have been released.
func (x *ceTxn) fetch() (done, ok bool) {
	t := x.t
	for {
		if !x.accessing {
			if x.task.Now() > t.Deadline {
				x.unpinAll()
				return true, false
			}
			if x.opIdx == len(t.Ops) {
				return true, true
			}
			x.access.Init(x.core, t.Ops[x.opIdx].Obj, x.prio, t.Deadline)
			x.accessing = true
		}
		stepped, pinned := x.access.Step(&x.task)
		if !stepped {
			return false, false
		}
		x.accessing = false
		if !pinned {
			x.unpinAll()
			return true, false
		}
		x.frames = append(x.frames, x.access.Frame())
		x.opIdx++
	}
}

// unpinAll releases the pinned pages unmodified.
func (x *ceTxn) unpinAll() {
	for _, f := range x.frames {
		x.core.pool.Unpin(f, false)
	}
	clear(x.frames)
	x.frames = x.frames[:0]
}

// report sets the transaction's final status (an aborted transaction
// stays aborted) and sends the result to its terminal.
func (x *ceTxn) report(committed bool) {
	t := x.t
	if committed {
		t.Status = txn.StatusCommitted
	} else if t.Status != txn.StatusAborted {
		t.Status = txn.StatusMissed
	}
	t.Finished = x.task.Now()
	t.ExecSite = netsim.ServerSite
	x.core.net.Send(netsim.Message{
		Kind: netsim.KindUserResult, From: netsim.ServerSite, To: t.Origin,
		Size:    netsim.ResultBytes,
		Payload: proto.UserResult{Txn: t.ID, Committed: committed},
	}, x.core.terminals[int(t.Origin)-1].inbox)
}

// releaseSlot returns the thread slot, if held.
func (x *ceTxn) releaseSlot() {
	if x.slotHeld {
		x.core.slots.Release()
		x.slotHeld = false
	}
}

// accessOp is one object access at the server, the per-object work of
// both transaction machines: ServerOpCPU on the server's one CPU,
// queued by the transaction's priority and abandoned at its deadline,
// then a pin of the object's page through the buffer pool. In the
// centralized system every client's low-level database work lands
// here, which is what saturates the server as clients are added
// (Figures 3–5).
type accessOp struct {
	ce       *ceCore
	obj      lockmgr.ObjectID
	prio     float64
	deadline time.Duration
	get      pagefile.GetOp
	pc       uint8
}

const (
	apCPU uint8 = iota
	apCPUWait
	apCPUBusy
	apCPUDone
	apPage
)

// Init arms the op to access obj for a transaction with the given
// priority and deadline.
func (o *accessOp) Init(ce *ceCore, obj lockmgr.ObjectID, prio float64, deadline time.Duration) {
	o.ce, o.obj, o.prio, o.deadline, o.pc = ce, obj, prio, deadline, apCPU
}

// Step advances the access. done=false means the task parked; ok=false
// means the deadline passed while waiting for the CPU, and nothing is
// held.
func (o *accessOp) Step(t *sim.Task) (done, ok bool) {
	ce := o.ce
	for {
		switch o.pc {
		case apCPU:
			if ce.cfg.ServerOpCPU <= 0 {
				o.pc = apCPUDone
				continue
			}
			switch t.AcquireTimeout(ce.cpu, o.prio, o.deadline-t.Now()) {
			case sim.AcquireGranted:
				o.pc = apCPUBusy
			case sim.AcquireTimedOut:
				return true, false
			default:
				o.pc = apCPUWait
				return false, false
			}
		case apCPUWait:
			if t.ResTimedOut() {
				return true, false
			}
			o.pc = apCPUBusy
		case apCPUBusy:
			o.pc = apCPUDone
			t.Sleep(ce.cfg.ServerOpCPU)
			return false, false
		case apCPUDone:
			if ce.cfg.ServerOpCPU > 0 {
				ce.cpu.Release()
			}
			o.get.Init(ce.pool, pagefile.PageID(o.obj))
			o.pc = apPage
		default: // apPage
			done, err := o.get.Step(t)
			if !done {
				return false, false
			}
			if err != nil {
				panic(fmt.Sprintf("rtdbs: centralized read %d: %v", o.obj, err))
			}
			return true, true
		}
	}
}

// Frame returns the pinned page once Step reported done and ok.
func (o *accessOp) Frame() *pagefile.Frame { return o.get.Frame() }

// Centralized is the CE-RTDBS: the server performs all transaction
// processing (as many as ServerThreads concurrently, each as a separate
// "thread"), scheduled Earliest-Deadline-First with strict 2PL on a
// central lock table; clients are terminals that submit transactions and
// receive results over the LAN.
type Centralized struct {
	ceCore

	locks    *lockmgr.BlockingTable
	versions []int64
	log      *wal.Log
	// txnFree recycles finished transaction machines.
	txnFree []*ceTxnMachine
}

// NewCentralized builds the CE-RTDBS.
func NewCentralized(cfg config.Config) (*Centralized, error) {
	ce := &Centralized{}
	if err := ce.init(cfg); err != nil {
		return nil, err
	}
	ce.spawnTxn = ce.spawn
	ce.locks = lockmgr.NewBlockingTable(ce.env)
	ce.locks.Reserve(cfg.DBSize)
	ce.versions = make([]int64, cfg.DBSize)
	if cfg.UseLogging {
		ce.log = wal.New(ce.env, ce.disk.Resource(), cfg.DiskWrite)
	}
	return ce, nil
}

// ceTermMachine submits a terminal's transaction stream to the server.
type ceTermMachine struct {
	task sim.Task
	ce   *ceCore
	term *terminal
	pc   uint8
}

const (
	ctNext uint8 = iota
	ctArrived
)

func (m *ceTermMachine) Resume() {
	ce, term := m.ce, m.term
	for {
		switch m.pc {
		case ctNext:
			next := term.gen.NextArrival()
			if next > ce.cfg.Duration {
				m.task.Detach()
				return
			}
			m.pc = ctArrived
			m.task.SleepUntil(next)
			return
		default: // ctArrived
			t := term.gen.Next()
			term.tracked = append(term.tracked, t)
			ce.net.Send(netsim.Message{
				Kind: netsim.KindTxnSubmit, From: term.id, To: netsim.ServerSite,
				Size: netsim.TxnShipBytes, Payload: proto.TxnSubmit{T: t},
			}, ce.inbox)
			m.pc = ctNext
		}
	}
}

// ceDrainMachine consumes result messages (displayed to the user).
type ceDrainMachine struct {
	task sim.Task
	term *terminal
}

func (m *ceDrainMachine) Resume() {
	for {
		if _, ok := m.term.inbox.Recv(&m.task); !ok {
			return
		}
	}
}

// ceServeMachine dispatches arriving transactions, each executing as
// its own machine (the paper's thread-per-transaction server).
type ceServeMachine struct {
	task sim.Task
	ce   *ceCore
	pc   uint8
	t    *txn.Transaction
}

const (
	csIdle uint8 = iota
	csCPUSleep
	csSpawn
)

func (m *ceServeMachine) Resume() {
	ce := m.ce
	for {
		switch m.pc {
		case csIdle:
			msg, ok := ce.inbox.Recv(&m.task)
			if !ok {
				return
			}
			sub, ok := msg.Payload.(proto.TxnSubmit)
			if !ok {
				panic(fmt.Sprintf("rtdbs: centralized server got %T", msg.Payload))
			}
			m.t = sub.T
			if ce.cfg.ServerOpCPU <= 0 {
				m.pc = csSpawn
				continue
			}
			m.pc = csCPUSleep
			if !m.task.Acquire(ce.cpu, 0) {
				return
			}
		case csCPUSleep:
			m.pc = csSpawn
			m.task.Sleep(ce.cfg.ServerOpCPU)
			return
		default: // csSpawn
			if ce.cfg.ServerOpCPU > 0 {
				ce.cpu.Release()
			}
			ce.spawnTxn(m.t)
			m.t = nil
			m.pc = csIdle
		}
	}
}

// spawn starts a pooled 2PL transaction machine for t.
func (ce *Centralized) spawn(t *txn.Transaction) {
	var x *ceTxnMachine
	if n := len(ce.txnFree); n > 0 {
		x = ce.txnFree[n-1]
		ce.txnFree[n-1] = nil
		ce.txnFree = ce.txnFree[:n-1]
	} else {
		x = &ceTxnMachine{}
	}
	*x = ceTxnMachine{
		ceTxn: ceTxn{core: &ce.ceCore, t: t, frames: x.frames[:0]},
		ce:    ce, lockReqs: x.lockReqs[:0],
	}
	ce.env.Spawn(&x.task, x)
}

// ceTxnMachine executes one transaction at the server under strict
// 2PL: admission to a thread slot, lock acquisition in access order
// (wait-for graph refusal aborts), the page fetch, the prescribed
// processing delay, updates (and their log force when logging), and
// the result. Each state is one stretch between two park points;
// finish unwinds locks, then the slot, in LIFO order.
type ceTxnMachine struct {
	ceTxn
	ce *Centralized
	pc uint8

	locksOwned  bool
	lockIdx     int
	lockStarted bool
	lockOp      lockmgr.LockOp
	lockReqs    []lockmgr.Request
	force       wal.ForceOp
}

const (
	xsAdmit uint8 = iota
	xsLock
	xsFetch
	xsRan
	xsForce
	xsDone
)

func (m *ceTxnMachine) Resume() {
	for m.pc != xsDone {
		if m.step() {
			return
		}
	}
	m.task.Detach()
	clear(m.frames)
	m.ce.txnFree = append(m.ce.txnFree, m)
}

// step runs one state; true means the task parked.
func (m *ceTxnMachine) step() bool {
	ce, t := m.ce, m.t
	switch m.pc {
	case xsAdmit:
		done, ok := m.admit()
		if !done {
			return true
		}
		if !ok || m.task.Now() > t.Deadline {
			m.finish(false)
			return false
		}
		t.Status = txn.StatusRunning
		m.locksOwned = true
		m.pc = xsLock
	case xsLock:
		return m.stepLock()
	case xsFetch:
		done, ok := m.fetch()
		if !done {
			return true
		}
		if !ok {
			m.finish(false)
			return false
		}
		m.pc = xsRan
		m.task.Sleep(t.Length)
		return true
	case xsRan:
		var lastLSN int64
		for i, op := range t.Ops {
			dirty := op.Write
			if dirty {
				ce.versions[op.Obj]++
				binary.LittleEndian.PutUint64(m.frames[i].Data, uint64(ce.versions[op.Obj]))
				if ce.log != nil {
					lastLSN = ce.log.Append(int64(t.ID), op.Obj, ce.versions[op.Obj])
				}
			}
			ce.pool.Unpin(m.frames[i], dirty)
		}
		if ce.log != nil && lastLSN > 0 {
			m.force.Init(ce.log, int64(t.ID), lastLSN)
			m.pc = xsForce
			return false
		}
		m.finish(m.task.Now() <= t.Deadline)
	case xsForce:
		if !m.force.Step(&m.task) {
			return true
		}
		m.finish(m.task.Now() <= t.Deadline)
	}
	return false
}

// stepLock acquires the locks in access order, then starts the fetch.
func (m *ceTxnMachine) stepLock() bool {
	ce, t := m.ce, m.t
	owner := lockmgr.OwnerID(t.ID)
	for m.lockIdx < len(t.Ops) {
		var done bool
		var err error
		if !m.lockStarted {
			op := t.Ops[m.lockIdx]
			m.lockStarted = true
			if cap(m.lockReqs) < len(t.Ops) {
				m.lockReqs = make([]lockmgr.Request, len(t.Ops))
			} else {
				m.lockReqs = m.lockReqs[:len(t.Ops)]
			}
			req := &m.lockReqs[m.lockIdx]
			*req = lockmgr.Request{Obj: op.Obj, Owner: owner, Mode: op.Mode(), Deadline: t.Deadline}
			done, err = m.lockOp.Start(ce.locks, &m.task, req)
		} else {
			done, err = m.lockOp.Step(&m.task)
		}
		if !done {
			return true
		}
		m.lockStarted = false
		if err != nil {
			if errors.Is(err, lockmgr.ErrDeadlock) {
				t.Status = txn.StatusAborted
			}
			m.finish(false)
			return false
		}
		m.lockIdx++
	}
	m.pc = xsFetch
	return false
}

// finish reports the outcome to the terminal, then unwinds the held
// locks and thread slot (LIFO).
func (m *ceTxnMachine) finish(committed bool) {
	m.report(committed)
	if m.locksOwned {
		m.ce.locks.ReleaseAll(lockmgr.OwnerID(m.t.ID))
		m.locksOwned = false
	}
	m.releaseSlot()
	m.pc = xsDone
}

// Run executes the full experiment.
func (ce *Centralized) Run() (*Result, error) {
	ce.Start()
	ce.env.Run(ce.cfg.Duration + ce.cfg.Drain)
	res := ce.collect()
	err := ce.locks.Table().Audit()
	ce.env.Close()
	return res, err
}

// collect settles still-open transactions at the end of the run and
// folds every post-warmup outcome into the result.
func (ce *ceCore) collect() *Result {
	now := ce.env.Now()
	for _, term := range ce.terminals {
		for _, t := range term.tracked {
			if !t.Terminal() {
				if t.Deadline >= now {
					continue
				}
				t.Status = txn.StatusMissed
				t.Finished = now
			}
			if t.Arrival < ce.cfg.Warmup {
				continue
			}
			ce.m.Submitted++
			ce.m.RecordOutcome(t)
		}
	}
	return &Result{
		Config:              ce.cfg,
		M:                   ce.m,
		Messages:            messageSnapshot(ce.net),
		TotalMessages:       ce.net.TotalMessages(),
		TotalBytes:          ce.net.TotalBytes(),
		NetUtilization:      ce.net.Utilization(),
		ServerBufferHitRate: ce.pool.HitRate(),
		ServerDiskReads:     ce.disk.Reads,
		ServerDiskWrites:    ce.disk.Writes,
		Elapsed:             now,
	}
}
