package lockmgr

import (
	"errors"
	"testing"
	"time"

	"siteselect/internal/sim"
)

// script is a test machine that runs its steps in order. A step reports
// done=false when it parked its task; it runs again on the next Resume.
// After the last step the machine detaches.
type script struct {
	task  sim.Task
	steps []func(*sim.Task) bool
	pc    int
}

func (s *script) Resume() {
	for s.pc < len(s.steps) {
		if !s.steps[s.pc](&s.task) {
			return
		}
		s.pc++
	}
	s.task.Detach()
}

func spawn(env *sim.Env, steps ...func(*sim.Task) bool) {
	s := &script{steps: steps}
	env.Spawn(&s.task, s)
}

func sleep(d time.Duration) func(*sim.Task) bool {
	armed := false
	return func(t *sim.Task) bool {
		if armed {
			armed = false
			return true
		}
		armed = true
		t.Sleep(d)
		return false
	}
}

func do(fn func(t *sim.Task)) func(*sim.Task) bool {
	return func(t *sim.Task) bool { fn(t); return true }
}

// lock acquires r through a LockOp and stores the outcome in *err.
func lock(bt *BlockingTable, r *Request, err *error) func(*sim.Task) bool {
	var op LockOp
	started := false
	return func(t *sim.Task) bool {
		var done bool
		var e error
		if !started {
			started = true
			done, e = op.Start(bt, t, r)
		} else {
			done, e = op.Step(t)
		}
		if done {
			*err = e
		}
		return done
	}
}

func TestLockWaitImmediateGrant(t *testing.T) {
	env := sim.NewEnv()
	bt := NewBlockingTable(env)
	err := errors.New("not run")
	spawn(env, lock(bt, req(1, 1, ModeExclusive, time.Hour), &err))
	env.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if env.Now() != 0 {
		t.Fatal("uncontended lock took time")
	}
}

func TestLockWaitBlocksUntilRelease(t *testing.T) {
	env := sim.NewEnv()
	bt := NewBlockingTable(env)
	var holdErr, waitErr error
	var gotAt time.Duration
	spawn(env,
		lock(bt, req(1, 1, ModeExclusive, time.Hour), &holdErr),
		sleep(5*time.Second),
		do(func(*sim.Task) { bt.Release(1, 1) }),
	)
	spawn(env,
		sleep(time.Second),
		lock(bt, req(1, 2, ModeExclusive, time.Hour), &waitErr),
		do(func(t *sim.Task) { gotAt = t.Now() }),
	)
	env.RunAll()
	if holdErr != nil || waitErr != nil {
		t.Fatalf("holder: %v, waiter: %v", holdErr, waitErr)
	}
	if gotAt != 5*time.Second {
		t.Fatalf("waiter granted at %v, want 5s", gotAt)
	}
}

func TestLockWaitDeadlineExpires(t *testing.T) {
	env := sim.NewEnv()
	bt := NewBlockingTable(env)
	var holdErr, err error
	var failedAt time.Duration
	spawn(env,
		lock(bt, req(1, 1, ModeExclusive, time.Hour), &holdErr),
		sleep(time.Hour),
		do(func(*sim.Task) { bt.ReleaseAll(1) }),
	)
	spawn(env,
		sleep(time.Second),
		lock(bt, req(1, 2, ModeExclusive, 3*time.Second), &err),
		do(func(t *sim.Task) { failedAt = t.Now() }),
	)
	env.Run(10 * time.Second)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if failedAt != 3*time.Second {
		t.Fatalf("waiter gave up at %v, want its 3s deadline", failedAt)
	}
	if bt.Table().QueueLen(1) != 0 {
		t.Fatal("expired waiter left in queue")
	}
	env.Close()
}

func TestLockWaitDeadlockRefused(t *testing.T) {
	env := sim.NewEnv()
	bt := NewBlockingTable(env)
	var errA1, errA2, errB1, errB error
	spawn(env,
		lock(bt, req(1, 1, ModeExclusive, time.Hour), &errA1),
		sleep(time.Second),
		lock(bt, req(2, 1, ModeExclusive, time.Hour), &errA2),
	)
	spawn(env,
		lock(bt, req(2, 2, ModeExclusive, time.Hour), &errB1),
		sleep(2*time.Second), // let a queue on obj 2 first
		lock(bt, req(1, 2, ModeExclusive, time.Hour), &errB),
	)
	env.Run(5 * time.Second)
	if !errors.Is(errB, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", errB)
	}
	env.Close()
}

func TestDowngradeWakesSharedWaiter(t *testing.T) {
	env := sim.NewEnv()
	bt := NewBlockingTable(env)
	var holdErr, readErr error
	var gotAt time.Duration
	spawn(env,
		lock(bt, req(1, 1, ModeExclusive, time.Hour), &holdErr),
		sleep(2*time.Second),
		do(func(*sim.Task) { bt.Downgrade(1, 1) }),
	)
	spawn(env,
		sleep(time.Second),
		lock(bt, req(1, 2, ModeShared, time.Hour), &readErr),
		do(func(t *sim.Task) { gotAt = t.Now() }),
	)
	env.RunAll()
	if readErr != nil {
		t.Fatalf("reader: %v", readErr)
	}
	if gotAt != 2*time.Second {
		t.Fatalf("reader granted at %v, want 2s (on downgrade)", gotAt)
	}
}

func TestManyWaitersServedInDeadlineOrder(t *testing.T) {
	env := sim.NewEnv()
	bt := NewBlockingTable(env)
	var order []OwnerID
	var holdErr error
	spawn(env,
		lock(bt, req(1, 99, ModeExclusive, time.Hour), &holdErr),
		sleep(time.Second),
		do(func(*sim.Task) { bt.Release(1, 99) }),
	)
	deadlines := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	errs := make([]error, len(deadlines))
	for i, dl := range deadlines {
		owner := OwnerID(i + 1)
		spawn(env,
			sleep(time.Duration(i+1)*time.Millisecond),
			lock(bt, req(1, owner, ModeExclusive, dl), &errs[i]),
			do(func(*sim.Task) {
				if errs[i] == nil {
					order = append(order, owner)
					bt.Release(1, owner)
				}
			}),
		)
	}
	env.RunAll()
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d: %v", i+1, err)
		}
	}
	want := []OwnerID{2, 3, 1}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}
