package sim

import "testing"

// The kernel promises an allocation-free steady state on its hot paths.
// These tests pin that promise down with AllocsPerRun so a regression
// (a closure creeping back into Sleep, the event pool losing its free
// list, the mailbox ring reverting to append) fails loudly.

func TestScheduleStepNoAllocs(t *testing.T) {
	env := NewEnv()
	fn := func() {}
	// Warm the event pool and heap so capacity growth is behind us.
	for i := 0; i < 8; i++ {
		env.Schedule(0, fn)
	}
	env.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		env.Schedule(0, fn)
		env.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Step allocates %.1f objects/op, want 0", allocs)
	}
}

func TestMailboxPutTryGetNoAllocs(t *testing.T) {
	env := NewEnv()
	m := NewMailbox[int](env)
	// Warm the ring.
	for i := 0; i < 8; i++ {
		m.Put(i)
	}
	for {
		if _, ok := m.TryGet(); !ok {
			break
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Put(1)
		m.TryGet()
	})
	if allocs != 0 {
		t.Fatalf("Mailbox Put+TryGet allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkSchedule measures the bare schedule-and-execute cycle: one
// pooled event through the 4-ary heap.
func BenchmarkSchedule(b *testing.B) {
	env := NewEnv()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Schedule(0, fn)
		env.Step()
	}
}

// BenchmarkMailboxPutGet measures the non-blocking mailbox fast path.
func BenchmarkMailboxPutGet(b *testing.B) {
	env := NewEnv()
	m := NewMailbox[int](env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(i)
		m.TryGet()
	}
}
