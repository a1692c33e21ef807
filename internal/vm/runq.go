package vm

import (
	"math/bits"

	"debugdet/internal/trace"
)

// This file implements the runnable index: the event-driven replacement
// for scanning every thread on every scheduling round. A thread enters the
// index when it parks with a pending operation and leaves it when that
// operation is applied. While it is indexed:
//
//   - its bit in ready is set exactly when its pending op is enabled;
//   - a lock waits on its mutex's waiter list, and a send, receive or
//     receive-timeout on its channel's list, so an applied op re-checks
//     only the waiters of the one object it touched;
//   - a sleep or receive-timeout with time gates in force (RelaxTime off)
//     is also on the clock-gated list, re-checked every round because the
//     clock moves with every event.
//
// No other state change can flip an op's enabledness, so the bitset always
// equals the full scan it replaces — the equivalence test pins that at
// every pick. Reading the bitset in word order yields the enabled set
// sorted by thread ID, as the Scheduler contract requires.

// initIndex sizes the index for a machine whose program objects are all
// registered (NewMutex and NewChan are setup-only) and whose threads so
// far are m.threads.
func (m *Machine) initIndex() {
	m.ready = make([]uint64, (len(m.threads)+63)/64)
	m.mutexWait = make([][]*Thread, len(m.mutexes))
	m.chanWait = make([][]*Thread, len(m.chans))
	m.timed = m.timed[:0]
}

// rebuildIndex recomputes the index from scratch over every live parked
// thread. Restore calls it once the snapshot state is installed: threads
// indexed themselves while parking during feed replay, against state the
// snapshot has since replaced.
func (m *Machine) rebuildIndex() {
	for _, t := range m.threads {
		t.waitq, t.timedPos = nil, 0
	}
	m.initIndex()
	for _, t := range m.threads {
		if !t.done {
			m.index(t)
		}
	}
}

// growIndex makes room in the ready bitset for a newly created thread.
func (m *Machine) growIndex(t *Thread) {
	for int(t.id)>>6 >= len(m.ready) {
		m.ready = append(m.ready, 0)
	}
}

// index enters a thread that just parked on t.pending into the index.
func (m *Machine) index(t *Thread) {
	req := &t.pending
	//lint:exhaustive-default only lock, send, recv and recv-timeout wait on an object; every other op is enabled regardless of mutex and channel state
	switch req.code {
	case opLock:
		m.addWaiter(&m.mutexWait[req.obj], t)
	case opSend, opRecv, opRecvTimeout:
		m.addWaiter(&m.chanWait[req.obj], t)
	}
	if !m.cfg.RelaxTime && (req.code == opSleep || req.code == opRecvTimeout) {
		m.timed = append(m.timed, t)
		t.timedPos = len(m.timed)
	}
	m.setReady(t, m.enabled(t))
}

// unindex removes t from the index: its pending op is being applied.
func (m *Machine) unindex(t *Thread) {
	m.setReady(t, false)
	if q := t.waitq; q != nil {
		last := len(*q) - 1
		moved := (*q)[last]
		(*q)[t.waitPos] = moved
		moved.waitPos = t.waitPos
		(*q)[last] = nil
		*q = (*q)[:last]
		t.waitq = nil
	}
	if t.timedPos > 0 {
		last := len(m.timed) - 1
		moved := m.timed[last]
		m.timed[t.timedPos-1] = moved
		moved.timedPos = t.timedPos
		m.timed[last] = nil
		m.timed = m.timed[:last]
		t.timedPos = 0
	}
}

// addWaiter appends t to an object's waiter list, remembering its slot so
// unindex removes it in O(1).
func (m *Machine) addWaiter(q *[]*Thread, t *Thread) {
	t.waitq, t.waitPos = q, len(*q)
	*q = append(*q, t)
}

// wake re-checks the waiters of the object an applied op touched: the
// only threads whose enabledness that op can have changed.
func (m *Machine) wake(code opCode, obj trace.ObjID) {
	//lint:exhaustive-default no other op changes a mutex owner or a channel's depth
	switch code {
	case opLock, opUnlock:
		m.recheck(m.mutexWait[obj])
	case opSend, opRecv, opTrySend, opTryRecv, opRecvTimeout:
		m.recheck(m.chanWait[obj])
	}
}

// recheck re-evaluates the ready bit of every thread in q.
func (m *Machine) recheck(q []*Thread) {
	for _, t := range q {
		m.setReady(t, m.enabled(t))
	}
}

func (m *Machine) setReady(t *Thread, on bool) {
	w, b := t.id>>6, uint64(1)<<(t.id&63)
	if on {
		m.ready[w] |= b
	} else {
		m.ready[w] &^= b
	}
}

// enabledThreads returns the live, parked threads whose pending operation
// can proceed, sorted by thread ID. The buffer is reused across rounds.
func (m *Machine) enabledThreads() []*Thread {
	m.recheck(m.timed)
	m.enabledBuf = m.enabledBuf[:0]
	for w, word := range m.ready {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			m.enabledBuf = append(m.enabledBuf, m.threads[w<<6|b])
		}
	}
	return m.enabledBuf
}
