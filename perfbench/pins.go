package main

import "debugdet/internal/record"

// fullMatrixPins is the benchmark's own copy of the expected debugging
// fidelity of every (scenario, model) cell at the default seeds, budget
// 200 and the default search seed — the table TestFullMatrix pins in the
// debugdet package. It is a copy on purpose: the benchmark must keep
// checking outputs against the same expectations when the program under
// test changes.
func fullMatrixPins() map[string]map[record.Model]float64 {
	const (
		P = record.Perfect
		V = record.Value
		O = record.Output
		F = record.Failure
		R = record.DebugRCSE
	)
	all := func(o, f float64) map[record.Model]float64 {
		return map[record.Model]float64{P: 1, V: 1, O: o, F: f, R: 1}
	}
	return map[string]map[record.Model]float64{
		"sum":              all(0, 1),
		"overflow":         all(1, 1),
		"msgdrop":          all(0.5, 0.5),
		"hyperkv-dataloss": all(1, 1.0/3.0),
		"bank":             all(0, 1),
		"deadlock":         all(1, 1),
		"dynokv-staleread": all(0.5, 1),
		"dynokv-resurrect": all(1, 1),
		"dynokv-losthint":  all(1, 1),
		"disk-tornwal":     all(1, 1),
		"disk-fsyncloss":   all(0.5, 0.5),
		"disk-snapres":     all(1, 1),
		"fuzz-atomicity":   all(1, 1),
		"fuzz-deadlock":    all(1, 1),
		"fuzz-lostmsg":     all(1, 1),
		"fuzz-oversell":    all(1, 1),
		"fuzz-crashpoint":  all(1, 1),
	}
}

// seedIndependent reports whether a model's fidelity is 1 at any search
// seed: the models that force the recorded schedule do not depend on the
// search's luck.
func seedIndependent(m record.Model) bool {
	return m == record.Perfect || m == record.Value || m == record.DebugRCSE
}
