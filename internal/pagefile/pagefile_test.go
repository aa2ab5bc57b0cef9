package pagefile

import (
	"testing"
	"testing/quick"
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

func spawn(env *sim.Env, steps ...func(*sim.Task) bool) *script {
	s := &script{steps: steps}
	env.Spawn(&s.task, s)
	return s
}

// runAll runs env dry and fails the test if a script never finished.
func runAll(t *testing.T, env *sim.Env, scripts ...*script) {
	t.Helper()
	env.RunAll()
	for i, s := range scripts {
		if s.pc < len(s.steps) {
			t.Fatalf("script %d stuck at step %d (deadlock?)", i, s.pc)
		}
	}
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

// io reads or writes page id of d through an ioOp.
func io(d *Disk, write bool, id PageID, buf []byte) func(*sim.Task) bool {
	var op ioOp
	started := false
	return func(t *sim.Task) bool {
		if !started {
			started = true
			op.start(d, write, id, buf)
		}
		return op.step(t)
	}
}

// get pins page id through a GetOp into *f, recording any error in
// *err.
func get(bp *BufferPool, id PageID, f **Frame, err *error) func(*sim.Task) bool {
	var op GetOp
	started := false
	return func(t *sim.Task) bool {
		if !started {
			started = true
			op.Init(bp, id)
		}
		done, e := op.Step(t)
		if done {
			*f, *err = op.Frame(), e
		}
		return done
	}
}

// put installs data as page id through a PutOp, recording any error in
// *err.
func put(bp *BufferPool, id PageID, data []byte, err *error) func(*sim.Task) bool {
	var op PutOp
	started := false
	return func(t *sim.Task) bool {
		if !started {
			started = true
			op.Init(bp, id, data)
		}
		done, e := op.Step(t)
		if done {
			*err = e
		}
		return done
	}
}

// touch pins and unpins page id, marking it dirty with value v in its
// first byte when v is non-zero.
func touch(t *testing.T, bp *BufferPool, id PageID, v byte) []func(*sim.Task) bool {
	var f *Frame
	var err error
	return []func(*sim.Task) bool{
		get(bp, id, &f, &err),
		do(func(*sim.Task) {
			if err != nil {
				t.Errorf("get %d: %v", id, err)
				return
			}
			if v != 0 {
				f.Data[0] = v
			}
			bp.Unpin(f, v != 0)
		}),
	}
}

func TestDiskReadWriteRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	out := make([]byte, PageSize)
	in := make([]byte, PageSize)
	for i := range in {
		in[i] = byte(i)
	}
	s := spawn(env, io(d, true, 3, in), io(d, false, 3, out))
	runAll(t, env, s)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("byte %d = %d, want %d", i, out[i], in[i])
		}
	}
	if d.Reads != 1 || d.Writes != 1 {
		t.Fatalf("reads=%d writes=%d", d.Reads, d.Writes)
	}
	if env.Now() != 24*time.Millisecond {
		t.Fatalf("elapsed = %v, want 24ms", env.Now())
	}
}

func TestDiskUnwrittenPageReadsZero(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DefaultDiskConfig())
	buf := make([]byte, PageSize)
	buf[0] = 0xFF
	runAll(t, env, spawn(env, io(d, false, 0, buf)))
	if buf[0] != 0 {
		t.Error("unwritten page not zeroed")
	}
}

func TestDiskOutOfRange(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	var f *Frame
	var getErr, putErr error
	s := spawn(env,
		get(bp, 4, &f, &getErr),
		put(bp, -1, make([]byte, PageSize), &putErr),
	)
	runAll(t, env, s)
	if getErr == nil {
		t.Error("read past end did not fail")
	}
	if putErr == nil {
		t.Error("negative write did not fail")
	}
	if d.Reads != 0 || d.Writes != 0 || env.Now() != 0 {
		t.Error("out-of-range access reached the device")
	}
}

func TestDiskSerializesRequests(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DiskConfig{ReadTime: 10 * time.Millisecond, WriteTime: 10 * time.Millisecond})
	var scripts []*script
	for i := 0; i < 3; i++ {
		scripts = append(scripts, spawn(env, io(d, false, PageID(i), make([]byte, PageSize))))
	}
	runAll(t, env, scripts...)
	if d.Reads != 3 {
		t.Fatalf("reads = %d", d.Reads)
	}
	if env.Now() != 30*time.Millisecond {
		t.Fatalf("3 serialized reads took %v, want 30ms", env.Now())
	}
}

func TestBufferHitIsFree(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DiskConfig{ReadTime: 10 * time.Millisecond, WriteTime: 10 * time.Millisecond})
	bp := NewBufferPool(env, d, 4)
	var before time.Duration
	steps := touch(t, bp, 1, 0)
	steps = append(steps, do(func(t *sim.Task) { before = t.Now() }))
	steps = append(steps, touch(t, bp, 1, 0)...)
	runAll(t, env, spawn(env, steps...))
	if env.Now() != before {
		t.Error("buffer hit took time")
	}
	if bp.Hits != 1 || bp.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", bp.Hits, bp.Misses)
	}
	if bp.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", bp.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	var steps []func(*sim.Task) bool
	// Load 0 and 1, then touch 0 so 1 becomes LRU: loading 2 must evict
	// 1, not 0.
	for _, id := range []PageID{0, 1, 0, 2} {
		steps = append(steps, touch(t, bp, id, 0)...)
	}
	runAll(t, env, spawn(env, steps...))
	if !bp.Contains(0) || bp.Contains(1) || !bp.Contains(2) {
		t.Errorf("residency after eviction: 0=%v 1=%v 2=%v",
			bp.Contains(0), bp.Contains(1), bp.Contains(2))
	}
	if bp.Evictions != 1 {
		t.Fatalf("evictions = %d", bp.Evictions)
	}
}

func TestDirtyWriteBackOnEviction(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 1)
	var f *Frame
	var err error
	steps := touch(t, bp, 5, 0xAB)
	steps = append(steps, touch(t, bp, 6, 0)...) // evicts page 5
	steps = append(steps, get(bp, 5, &f, &err))  // re-read from disk
	runAll(t, env, spawn(env, steps...))
	if err != nil || f.Data[0] != 0xAB {
		t.Fatalf("dirty page lost on eviction (err %v)", err)
	}
	if bp.DirtyWrites != 1 {
		t.Fatalf("dirty writes = %d", bp.DirtyWrites)
	}
	if d.Writes != 1 {
		t.Fatalf("disk writes = %d", d.Writes)
	}
}

func TestAllPinnedBlocksUntilUnpin(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 1)
	var f0, f1 *Frame
	var err0, err1 error
	gotAt := time.Duration(-1)
	holder := spawn(env,
		get(bp, 0, &f0, &err0),
		sleep(time.Second),
		do(func(*sim.Task) { bp.Unpin(f0, false) }),
	)
	waiter := spawn(env,
		sleep(time.Millisecond),
		get(bp, 1, &f1, &err1),
		do(func(t *sim.Task) { gotAt = t.Now(); bp.Unpin(f1, false) }),
	)
	runAll(t, env, holder, waiter)
	if err0 != nil || err1 != nil {
		t.Fatalf("get: %v, %v", err0, err1)
	}
	if gotAt < time.Second {
		t.Fatalf("waiter got frame at %v, before holder unpinned", gotAt)
	}
}

func TestConcurrentGetSingleRead(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 4)
	var scripts []*script
	for i := 0; i < 5; i++ {
		scripts = append(scripts, spawn(env, touch(t, bp, 7, 0)...))
	}
	runAll(t, env, scripts...)
	if d.Reads != 1 {
		t.Fatalf("disk reads = %d, want 1 (shared load)", d.Reads)
	}
	if bp.Misses != 1 || bp.Hits != 4 {
		t.Fatalf("hits=%d misses=%d", bp.Hits, bp.Misses)
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("double Unpin did not panic")
		}
	}()
	bp.Unpin(&Frame{}, false)
}

// Property: after any sequence of writes through a pool smaller than the
// page set, reading each page back through the pool returns the last
// value written (eviction write-back preserves data).
func TestWriteBackConsistencyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		env := sim.NewEnv()
		d := NewDisk(env, 8, DiskConfig{ReadTime: time.Millisecond, WriteTime: time.Millisecond})
		bp := NewBufferPool(env, d, 3)
		want := map[PageID]byte{}
		var steps []func(*sim.Task) bool
		for i, op := range ops {
			id, v := PageID(op%8), byte(i%255+1)
			want[id] = v
			steps = append(steps, touch(t, bp, id, v)...)
		}
		pass := true
		for id := PageID(0); id < 8; id++ {
			v, ok := want[id]
			if !ok {
				continue
			}
			var fr *Frame
			var err error
			steps = append(steps,
				get(bp, id, &fr, &err),
				do(func(*sim.Task) {
					pass = pass && err == nil && fr.Data[0] == v
					bp.Unpin(fr, false)
				}),
			)
		}
		s := spawn(env, steps...)
		env.RunAll()
		return pass && s.pc == len(s.steps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPutInstallsWithoutRead(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	data := make([]byte, PageSize)
	data[0] = 0x42
	var f *Frame
	var putErr, getErr error
	readsAfterPut := int64(-1)
	s := spawn(env,
		put(bp, 3, data, &putErr),
		do(func(*sim.Task) { readsAfterPut = d.Reads }),
		get(bp, 3, &f, &getErr),
	)
	runAll(t, env, s)
	if putErr != nil || getErr != nil {
		t.Fatalf("put: %v, get: %v", putErr, getErr)
	}
	// No disk read happened; the page is resident and dirty.
	if readsAfterPut != 0 {
		t.Errorf("Put read from disk: %d reads", readsAfterPut)
	}
	if f.Data[0] != 0x42 {
		t.Error("Put data lost")
	}
	if !f.Dirty() {
		t.Error("Put page not dirty")
	}
}

func TestPutOverwritesResidentPage(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 10, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	data := make([]byte, PageSize)
	data[0] = 9
	var f *Frame
	var putErr, getErr error
	steps := touch(t, bp, 1, 1)
	steps = append(steps, put(bp, 1, data, &putErr), get(bp, 1, &f, &getErr))
	runAll(t, env, spawn(env, steps...))
	if putErr != nil || getErr != nil {
		t.Fatalf("put: %v, get: %v", putErr, getErr)
	}
	if f.Data[0] != 9 {
		t.Errorf("resident overwrite lost: %d", f.Data[0])
	}
}

func TestPutRejectsBadPage(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DefaultDiskConfig())
	bp := NewBufferPool(env, d, 2)
	var err error
	runAll(t, env, spawn(env, put(bp, 99, make([]byte, PageSize), &err)))
	if err == nil {
		t.Error("out-of-range Put accepted")
	}
}

func TestDiskResourceShared(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 4, DiskConfig{ReadTime: 10 * time.Millisecond, WriteTime: 10 * time.Millisecond})
	var t2 time.Duration
	a := spawn(env, io(d, false, 0, make([]byte, PageSize)))
	// Co-located work on the same spindle waits behind the read.
	parked := false
	b := spawn(env,
		func(t *sim.Task) bool {
			if parked {
				return true // resumed holding the arm
			}
			parked = !t.Acquire(d.Resource(), 0)
			return !parked
		},
		sleep(5*time.Millisecond),
		do(func(t *sim.Task) { d.Resource().Release(); t2 = t.Now() }),
	)
	runAll(t, env, a, b)
	if t2 != 15*time.Millisecond {
		t.Fatalf("shared-arm work finished at %v, want 15ms", t2)
	}
}
