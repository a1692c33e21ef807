package vm

import "debugdet/internal/trace"

// ReferenceEnabled computes the enabled set by the definition the
// runnable index maintains incrementally: a full scan of every live
// thread whose pending operation can proceed, in thread-ID order. It is
// exported to tests only, which compare it with the enabled set each
// Pick receives.
func ReferenceEnabled(m *Machine) []trace.ThreadID {
	var ids []trace.ThreadID
	for _, t := range m.threads {
		if !t.done && m.enabled(t) {
			ids = append(ids, t.id)
		}
	}
	return ids
}
