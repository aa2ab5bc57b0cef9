package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv()
	var got []int
	env.Schedule(2*time.Second, func() { got = append(got, 2) })
	env.Schedule(1*time.Second, func() { got = append(got, 1) })
	env.Schedule(3*time.Second, func() { got = append(got, 3) })
	env.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if env.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", env.Now())
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	env := NewEnv()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		env.Schedule(time.Second, func() { got = append(got, i) })
	}
	env.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	env := NewEnv()
	fired := 0
	env.Schedule(1*time.Second, func() { fired++ })
	env.Schedule(5*time.Second, func() { fired++ })
	env.Run(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if env.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", env.Now())
	}
	env.Run(10 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestTimerCancel(t *testing.T) {
	env := NewEnv()
	fired := false
	tm := env.Schedule(time.Second, func() { fired = true })
	tm.Cancel()
	env.RunAll()
	if fired {
		t.Fatal("canceled timer fired")
	}
	if !tm.Stopped() {
		t.Fatal("canceled timer not Stopped")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	env := NewEnv()
	env.Schedule(time.Second, func() {
		env.Schedule(-time.Minute, func() {
			if env.Now() != time.Second {
				t.Fatalf("negative delay ran at %v", env.Now())
			}
		})
	})
	env.RunAll()
}

func TestAtInPastPanics(t *testing.T) {
	env := NewEnv()
	env.Schedule(time.Second, func() {})
	env.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	env.At(0, func() {})
}

// script is a test machine that runs its steps in order. A step that
// arms a park reports true, and the next step runs on the following
// Resume; after the last step the machine detaches.
type script struct {
	task  Task
	steps []func(*Task) bool
	pc    int
}

func (s *script) Resume() {
	for s.pc < len(s.steps) {
		step := s.steps[s.pc]
		s.pc++
		if step(&s.task) {
			return
		}
	}
	s.task.Detach()
}

func spawnScript(env *Env, steps ...func(*Task) bool) *script {
	s := &script{steps: steps}
	env.Spawn(&s.task, s)
	return s
}

func sleep(d time.Duration) func(*Task) bool {
	return func(t *Task) bool { t.Sleep(d); return true }
}

func sleepUntil(at time.Duration) func(*Task) bool {
	return func(t *Task) bool { t.SleepUntil(at); return true }
}

func wait(s *Signal) func(*Task) bool {
	return func(t *Task) bool { t.Wait(s); return true }
}

func acquire(r *Resource, priority float64) func(*Task) bool {
	return func(t *Task) bool { return !t.Acquire(r, priority) }
}

func do(fn func()) func(*Task) bool {
	return func(*Task) bool { fn(); return false }
}

func TestMachineSleepUntil(t *testing.T) {
	env := NewEnv()
	var order []string
	spawnScript(env,
		sleepUntil(2*time.Second),
		do(func() { order = append(order, "a") }),
		sleepUntil(time.Second), // past: resumes at the current instant
		do(func() { order = append(order, "a2@"+env.Now().String()) }),
	)
	spawnScript(env,
		sleep(time.Second),
		do(func() { order = append(order, "b") }),
	)
	env.RunAll()
	want := []string{"b", "a", "a2@2s"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMachineSpawnsChild(t *testing.T) {
	env := NewEnv()
	var childRan time.Duration
	spawnScript(env,
		do(func() {
			spawnScript(env, sleep(time.Second), do(func() { childRan = env.Now() }))
		}),
		sleep(2*time.Second),
	)
	env.RunAll()
	if childRan != time.Second {
		t.Fatalf("child ran at %v, want 1s", childRan)
	}
	if env.Machines() != 0 {
		t.Fatalf("live machines = %d, want 0", env.Machines())
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	woken := 0
	for i := 0; i < 3; i++ {
		spawnScript(env, wait(sig), do(func() { woken++ }))
	}
	spawnScript(env, sleep(time.Second), do(sig.Broadcast))
	env.RunAll()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if sig.Waiters() != 0 {
		t.Fatalf("leftover waiters = %d", sig.Waiters())
	}
}

// TestSignalFireWakesOneFIFO checks that each Fire wakes exactly one
// waiter, the earliest armed.
func TestSignalFireWakesOneFIFO(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		spawnScript(env, wait(sig), do(func() { order = append(order, i) }))
	}
	spawnScript(env,
		sleep(time.Second), do(sig.Fire),
		sleep(time.Second), do(sig.Fire),
		sleep(time.Second), do(sig.Fire),
	)
	env.RunAll()
	if len(order) != 3 {
		t.Fatalf("wake order = %v, want 3 wakeups", order)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order = %v, want FIFO", order)
		}
	}
}

// TestMachineSignalFIFOWithProcs checks that Fire serves waiters
// strictly in arming order, round after round as each woken machine
// re-arms, whether the machine armed at adopt time or on its first
// Resume. Spawned machines arm at their t=0 dispatch, as goroutine
// processes did when the test interleaved the two kinds; it keeps
// that name.
func TestMachineSignalFIFOWithProcs(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	var log []string
	adopt := func(name string) {
		m := &logWaiter{sig: sig, log: &log, name: name}
		env.Adopt(&m.task, m)
		m.task.Wait(sig)
	}
	spawn := func(name string) {
		m := &logWaiter{sig: sig, log: &log, name: name}
		env.Spawn(&m.task, m)
	}
	adopt("m1")
	spawn("s1")
	adopt("m2")
	spawn("s2")
	env.RunAll() // the spawned waiters log their start and arm
	want := []string{"m1", "m2", "s1", "s2"}
	for round := 0; round < 3; round++ {
		log = log[:0]
		for range want {
			sig.Fire()
			env.RunAll()
		}
		if len(log) != len(want) {
			t.Fatalf("round %d: woke %v, want %v", round, log, want)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("round %d: woke %v, want %v", round, log, want)
			}
		}
	}
}

// TestWaitTimeout checks both outcomes of a timed wait: a waiter whose
// timeout passes first, and one armed later that a Broadcast wakes
// before its timeout, which must then never fire.
func TestWaitTimeout(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var gotTimeout, gotSignal bool
	var end time.Duration
	spawnScript(env,
		func(t *Task) bool { return t.WaitTimeout(sig, time.Second) },
		func(t *Task) bool { gotTimeout = t.TimedOut(); return false },
	)
	spawnScript(env,
		sleep(2*time.Second),
		func(t *Task) bool { return t.WaitTimeout(sig, 10*time.Second) },
		func(t *Task) bool { gotSignal = !t.TimedOut(); end = t.Now(); return false },
	)
	spawnScript(env, sleep(3*time.Second), do(sig.Broadcast))
	env.RunAll()
	if !gotTimeout || !gotSignal {
		t.Fatalf("gotTimeout=%v gotSignal=%v", gotTimeout, gotSignal)
	}
	if end != 3*time.Second || env.Now() != 3*time.Second {
		t.Fatalf("woken at %v, run ended at %v: want 3s (canceled timeout must not fire)", end, env.Now())
	}
	if sig.Waiters() != 0 {
		t.Fatalf("leftover waiters = %d", sig.Waiters())
	}
}

func TestResourceFIFOWithinPriority(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var order []int
	spawnScript(env, acquire(r, 0), sleep(time.Second), do(r.Release))
	for i := 0; i < 3; i++ {
		spawnScript(env,
			sleep(time.Duration(i+1)*time.Millisecond),
			acquire(r, 5),
			do(func() { order = append(order, i) }),
			sleep(time.Second),
			do(r.Release),
		)
	}
	env.RunAll()
	if len(order) != 3 {
		t.Fatalf("grant order = %v, want 3 grants", order)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

func TestResourcePriorityOrder(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var order []float64
	spawnScript(env, acquire(r, 0), sleep(time.Second), do(r.Release))
	for _, pri := range []float64{3, 1, 2} {
		spawnScript(env,
			sleep(time.Millisecond),
			acquire(r, pri),
			do(func() { order = append(order, pri) }),
			sleep(time.Second),
			do(r.Release),
		)
	}
	env.RunAll()
	want := []float64{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("grant order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

func TestResourceCapacity(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 2)
	maxInUse := 0
	for i := 0; i < 6; i++ {
		spawnScript(env,
			acquire(r, 0),
			do(func() { maxInUse = max(maxInUse, r.InUse()) }),
			sleep(time.Second),
			do(r.Release),
		)
	}
	env.RunAll()
	if maxInUse != 2 {
		t.Fatalf("max in use = %d, want 2", maxInUse)
	}
	if r.Grants != 6 {
		t.Fatalf("grants = %d, want 6", r.Grants)
	}
	if env.Now() != 3*time.Second {
		t.Fatalf("six 1s holds on two units ended at %v, want 3s", env.Now())
	}
}

// acquireTimeout is a script step pair: take a unit of r with timeout
// d, then record whether it was obtained and, if so, release it.
func acquireTimeout(r *Resource, d time.Duration, acquired *bool) []func(*Task) bool {
	parked := false
	return []func(*Task) bool{
		func(t *Task) bool {
			switch t.AcquireTimeout(r, 0, d) {
			case AcquireGranted:
				*acquired = true
			case AcquireTimedOut:
				*acquired = false
			default:
				parked = true
				return true
			}
			return false
		},
		func(t *Task) bool {
			if parked {
				*acquired = !t.ResTimedOut()
			}
			if *acquired {
				r.Release()
			}
			return false
		},
	}
}

func TestAcquireTimeout(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var shortGot, longGot bool
	spawnScript(env, acquire(r, 0), sleep(5*time.Second), do(r.Release))
	spawnScript(env, append([]func(*Task) bool{sleep(time.Millisecond)},
		acquireTimeout(r, time.Second, &shortGot)...)...)
	spawnScript(env, append([]func(*Task) bool{sleep(2 * time.Millisecond)},
		acquireTimeout(r, time.Minute, &longGot)...)...)
	env.RunAll()
	if shortGot {
		t.Fatal("short waiter should have timed out")
	}
	if !longGot {
		t.Fatal("long waiter should have acquired")
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("in use = %d, queued = %d after all released", r.InUse(), r.QueueLen())
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceUtilization(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	spawnScript(env, acquire(r, 0), sleep(time.Second), do(r.Release))
	env.Run(2 * time.Second)
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestMailboxFIFO(t *testing.T) {
	env := NewEnv()
	mb := NewMailbox[int](env)
	m := &drainMachine{mb: mb}
	env.Spawn(&m.task, m)
	for i := 0; i < 3; i++ {
		spawnScript(env, sleep(time.Duration(i+1)*time.Second), do(func() { mb.Put(i) }))
	}
	env.RunAll()
	if len(m.got) != 3 {
		t.Fatalf("recv = %v, want 3 items", m.got)
	}
	for i := range m.got {
		if m.got[i] != i {
			t.Fatalf("recv order = %v", m.got)
		}
	}
}

func TestMailboxPutFromEventCallback(t *testing.T) {
	env := NewEnv()
	mb := NewMailbox[int](env)
	m := &drainMachine{mb: mb}
	env.Spawn(&m.task, m)
	env.Schedule(time.Second, func() { mb.Put(42) })
	env.RunAll()
	if len(m.got) != 1 || m.got[0] != 42 {
		t.Fatalf("got %v, want [42]", m.got)
	}
}

// recvOnce takes a single item from its mailbox and detaches.
type recvOnce struct {
	task Task
	mb   *Mailbox[int]
	sum  *int
}

func (m *recvOnce) Resume() {
	if v, ok := m.mb.Recv(&m.task); ok {
		*m.sum += v
		m.task.Detach()
	}
}

func TestMailboxTwoReceivers(t *testing.T) {
	env := NewEnv()
	mb := NewMailbox[int](env)
	sum := 0
	for i := 0; i < 2; i++ {
		m := &recvOnce{mb: mb, sum: &sum}
		env.Spawn(&m.task, m)
	}
	env.Schedule(time.Second, func() { mb.Put(1) })
	env.Schedule(2*time.Second, func() { mb.Put(2) })
	env.RunAll()
	if sum != 3 {
		t.Fatalf("sum = %d, want 3", sum)
	}
	if env.Machines() != 0 {
		t.Fatalf("leaked receivers: %d", env.Machines())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		env := NewEnv()
		var trace []int
		r := NewResource(env, 2)
		sig := NewSignal(env)
		for i := 0; i < 10; i++ {
			spawnScript(env,
				sleep(time.Duration(i%3)*time.Second),
				acquire(r, float64(i%4)),
				do(func() { trace = append(trace, i) }),
				sleep(time.Second),
				do(func() { r.Release(); sig.Broadcast() }),
			)
		}
		env.RunAll()
		return trace
	}
	a, b := run(), run()
	if len(a) != 10 || len(a) != len(b) {
		t.Fatalf("trace lengths: %d vs %d, want 10", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// Property: for any schedule of delays, events fire in nondecreasing time
// order and the clock never goes backwards.
func TestEventOrderProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		env := NewEnv()
		var last time.Duration = -1
		ok := true
		for _, d := range delaysMs {
			env.Schedule(time.Duration(d)*time.Millisecond, func() {
				if env.Now() < last {
					ok = false
				}
				last = env.Now()
			})
		}
		env.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a resource never exceeds its capacity and all waiters are
// eventually served for any mix of priorities and hold times.
func TestResourceInvariantProperty(t *testing.T) {
	f := func(prios []uint8, capacity uint8) bool {
		c := int(capacity%4) + 1
		env := NewEnv()
		r := NewResource(env, c)
		served := 0
		ok := true
		for _, pr := range prios {
			spawnScript(env,
				acquire(r, float64(pr)),
				do(func() { ok = ok && r.InUse() <= c }),
				sleep(time.Duration(pr%5)*time.Millisecond),
				do(func() { r.Release(); served++ }),
			)
		}
		env.RunAll()
		return ok && served == len(prios) && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireTimeoutImmediateGrant(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	ok := false
	spawnScript(env, acquireTimeout(r, time.Second, &ok)...)
	env.RunAll()
	if !ok {
		t.Fatal("free resource should grant immediately")
	}
	if env.Now() != 0 {
		t.Fatal("immediate grant took time")
	}
}

func TestAcquireTimeoutZeroBudgetFails(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	got := true
	spawnScript(env, acquire(r, 0), sleep(time.Hour), do(r.Release))
	spawnScript(env, append([]func(*Task) bool{sleep(time.Millisecond)},
		acquireTimeout(r, 0, &got)...)...)
	env.Run(time.Second)
	if got {
		t.Fatal("zero-budget acquire of a busy resource succeeded")
	}
	if r.QueueLen() != 0 {
		t.Fatal("zero-budget acquire queued")
	}
	env.Close()
}

func TestStepsCountAndMachines(t *testing.T) {
	env := NewEnv()
	env.Schedule(time.Second, func() {})
	env.Schedule(2*time.Second, func() {})
	env.RunAll()
	if env.Steps() != 2 {
		t.Fatalf("steps = %d", env.Steps())
	}
	spawnScript(env, sleep(time.Second))
	if env.Machines() != 1 {
		t.Fatalf("machines = %d, want 1", env.Machines())
	}
	env.RunAll()
	if env.Steps() != 4 || env.Machines() != 0 {
		t.Fatalf("steps = %d, machines = %d after the script ran; want 4, 0", env.Steps(), env.Machines())
	}
}

func TestWaitTimeoutZeroReturnsImmediately(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	parked := true
	spawnScript(env, func(t *Task) bool { parked = t.WaitTimeout(sig, 0); return parked })
	env.RunAll()
	if parked {
		t.Fatal("zero timeout should report timeout without parking")
	}
	if sig.Waiters() != 0 {
		t.Fatal("zero timeout left a queued waiter")
	}
}

func TestResourceCapacityPanics(t *testing.T) {
	env := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity resource accepted")
		}
	}()
	NewResource(env, 0)
}
