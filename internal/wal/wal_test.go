package wal

import (
	"testing"
	"time"

	"siteselect/internal/sim"
)

func newLog(env *sim.Env) *Log {
	return New(env, sim.NewResource(env, 1), 10*time.Millisecond)
}

// committer is a test machine: after an optional delay it appends one
// record, forces the log to it through a ForceOp, and then forces again
// (a no-op, since the record is already durable), recording when each
// force completed.
type committer struct {
	task     sim.Task
	l        *Log
	txn      int64
	delay    time.Duration
	force    ForceOp
	pc       uint8
	lsn      int64
	finished time.Duration
	again    time.Duration
}

func (c *committer) Resume() {
	for {
		switch c.pc {
		case 0:
			c.pc = 1
			if c.delay > 0 {
				c.task.Sleep(c.delay)
				return
			}
		case 1:
			c.lsn = c.l.Append(c.txn, 7, c.txn)
			c.force.Init(c.l, c.txn, c.lsn)
			c.pc = 2
		case 2:
			if !c.force.Step(&c.task) {
				return
			}
			c.finished = c.task.Now()
			c.force.Init(c.l, c.txn, c.lsn)
			c.pc = 3
		default:
			if !c.force.Step(&c.task) {
				return
			}
			c.again = c.task.Now()
			c.task.Detach()
			return
		}
	}
}

func commit(env *sim.Env, l *Log, txn int64, delay time.Duration) *committer {
	c := &committer{l: l, txn: txn, delay: delay, finished: -1, again: -1}
	env.Spawn(&c.task, c)
	return c
}

func TestAppendAssignsDenseLSNs(t *testing.T) {
	env := sim.NewEnv()
	l := newLog(env)
	for i := int64(1); i <= 5; i++ {
		if lsn := l.Append(i, 1, i); lsn != i {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if l.Len() != 5 || l.Appends != 5 {
		t.Fatalf("len=%d appends=%d", l.Len(), l.Appends)
	}
	if l.DurableLSN() != 0 {
		t.Fatal("nothing should be durable before a force")
	}
}

func TestForceMakesDurableAndChargesDisk(t *testing.T) {
	env := sim.NewEnv()
	l := newLog(env)
	c := commit(env, l, 1, 0)
	env.RunAll()
	if c.finished != 10*time.Millisecond || l.DurableLSN() != 1 {
		t.Fatalf("force finished at %v with durable LSN %d, want 10ms and 1", c.finished, l.DurableLSN())
	}
	if l.Forces != 1 {
		t.Fatalf("forces = %d", l.Forces)
	}
}

func TestForceAlreadyDurableIsFree(t *testing.T) {
	env := sim.NewEnv()
	l := newLog(env)
	c := commit(env, l, 1, 0)
	env.RunAll()
	if c.again != c.finished {
		t.Errorf("redundant force took %v", c.again-c.finished)
	}
	if l.Forces != 1 {
		t.Fatalf("forces = %d, want 1", l.Forces)
	}
}

func TestGroupCommit(t *testing.T) {
	env := sim.NewEnv()
	l := newLog(env)
	var cs []*committer
	for i := 0; i < 3; i++ {
		// Stagger the commits within one force.
		cs = append(cs, commit(env, l, int64(i+1), time.Duration(i)*time.Millisecond))
	}
	env.RunAll()
	// Committer 1 forces alone (covering only itself at t=0); 2 and 3
	// appended during that force and share the second one.
	if l.Forces > 2 {
		t.Fatalf("forces = %d, want group commit to batch (<=2)", l.Forces)
	}
	if l.GroupCommits == 0 {
		t.Fatal("no group commit recorded")
	}
	if l.DurableLSN() != 3 {
		t.Fatalf("durable = %d", l.DurableLSN())
	}
	if cs[1].finished != cs[2].finished {
		t.Fatalf("grouped committers finished apart: %v vs %v", cs[1].finished, cs[2].finished)
	}
}

// holdDisk occupies the device for d when first resumed.
type holdDisk struct {
	task sim.Task
	disk *sim.Resource
	d    time.Duration
	pc   uint8
	done bool
}

func (h *holdDisk) Resume() {
	switch h.pc {
	case 0:
		h.pc = 1
		if !h.task.Acquire(h.disk, 0) {
			return
		}
		fallthrough
	case 1:
		h.pc = 2
		h.task.Sleep(h.d)
	default:
		h.disk.Release()
		h.done = true
		h.task.Detach()
	}
}

func TestForcesSerializeOnDisk(t *testing.T) {
	env := sim.NewEnv()
	disk := sim.NewResource(env, 1)
	l := New(env, disk, 10*time.Millisecond)
	io := &holdDisk{disk: disk, d: 25 * time.Millisecond} // unrelated disk work first
	env.Spawn(&io.task, io)
	c := commit(env, l, 1, time.Millisecond)
	env.RunAll()
	if !io.done {
		t.Fatal("disk work did not finish")
	}
	if c.finished != 35*time.Millisecond {
		t.Fatalf("force finished at %v, want 35ms (behind the other I/O)", c.finished)
	}
}
