package sim

// Signal is a condition-variable-like primitive. Machines wait on it
// (Task.Wait, Task.WaitTimeout); Broadcast wakes every current waiter and
// Fire wakes the longest-waiting one. Wakeups are scheduled at the
// current instant, so woken machines resume after the waking event
// completes, in wait order.
//
// As with condition variables, a wakeup is a hint: a resumed machine
// re-checks its predicate and waits again if it still does not hold.
//
// The waiter queue is an intrusive doubly-linked list of per-task
// wait records (Task.wait), so enqueueing is allocation free and
// removal — on wake or timeout — is O(1).
type Signal struct {
	env        *Env
	head, tail *signalWait
	n          int
}

// signalWait is a task's intrusive signal-queue node. Every Task
// embeds exactly one: a blocked task waits on at most one signal.
type signalWait struct {
	t          *Task
	prev, next *signalWait
	s          *Signal // owning signal while queued, nil otherwise
	timedOut   bool
	timer      Timer
	hasTimer   bool
}

// NewSignal returns a signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Fire wakes the longest-waiting machine, if any.
func (s *Signal) Fire() {
	w := s.head
	if w == nil {
		return
	}
	s.unlink(w)
	s.wake(w)
}

// Broadcast wakes every machine currently waiting.
func (s *Signal) Broadcast() {
	for w := s.head; w != nil; {
		next := w.next
		w.prev, w.next, w.s = nil, nil, nil
		s.wake(w)
		w = next
	}
	s.head, s.tail = nil, nil
	s.n = 0
}

// Waiters returns the number of machines currently waiting.
func (s *Signal) Waiters() int { return s.n }

func (s *Signal) wake(w *signalWait) {
	if w.hasTimer {
		w.timer.Cancel()
		w.hasTimer = false
	}
	s.env.scheduleResume(s.env.now, w.t)
}

func (s *Signal) push(w *signalWait) {
	w.s = s
	w.prev = s.tail
	w.next = nil
	if s.tail != nil {
		s.tail.next = w
	} else {
		s.head = w
	}
	s.tail = w
	s.n++
}

func (s *Signal) unlink(w *signalWait) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		s.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		s.tail = w.prev
	}
	w.prev, w.next, w.s = nil, nil, nil
	s.n--
}
