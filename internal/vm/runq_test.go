package vm_test

import (
	"fmt"
	"reflect"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/progen"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// checkedSched wraps a scheduler and, on every pick, compares the enabled
// set the machine presents (maintained by the runnable index) with the
// full-scan definition. It never changes a decision.
type checkedSched struct {
	inner  vm.Scheduler
	t      testing.TB
	where  string
	picks  int
	failed bool
}

func (c *checkedSched) Name() string { return c.inner.Name() }

func (c *checkedSched) Pick(m *vm.Machine, enabled []*vm.Thread) *vm.Thread {
	c.picks++
	got := make([]trace.ThreadID, len(enabled))
	for i, t := range enabled {
		got[i] = t.ID()
	}
	if want := vm.ReferenceEnabled(m); !c.failed && !reflect.DeepEqual(got, want) {
		// Errorf, not Fatalf: picks may run on a VM thread's goroutine.
		c.t.Errorf("%s: pick at seq %d: index says enabled %v, full scan says %v", c.where, m.Seq(), got, want)
		c.failed = true
	}
	return c.inner.Pick(m, enabled)
}

// indexRun is one program to drive with checked scheduling.
type indexRun struct {
	s      *scenario.Scenario
	seed   int64
	params scenario.Params
}

func (r indexRun) String() string { return fmt.Sprintf("%s %v seed %d", r.s.Name, r.params, r.seed) }

// indexRuns covers the corpus, every fixed variant and generated programs
// of every progen family.
func indexRuns() []indexRun {
	seeds, gens := 2, 10
	if testing.Short() {
		seeds, gens = 1, 5
	}
	var runs []indexRun
	for _, s := range append(workload.All(), workload.Variants()...) {
		for i := 0; i < seeds; i++ {
			runs = append(runs, indexRun{s, s.DefaultSeed + int64(i), nil})
		}
	}
	for g := 0; g < gens; g++ {
		p := progen.ForSeed(int64(g))
		runs = append(runs, indexRun{p.Scenario, p.Seed, p.Params})
	}
	return runs
}

// TestRunnableIndexMatchesFullScan pins the runnable index against the
// full scan it replaced, at every scheduling decision, across every way a
// machine is driven: fresh runs under the random and PCT schedulers,
// schedule-forcing replays with relaxed time, the pure baton protocol,
// paused-and-continued runs, and machines restored from checkpoints.
func TestRunnableIndexMatchesFullScan(t *testing.T) {
	snapsPerRun := uint64(8)
	if testing.Short() {
		snapsPerRun = 3
	}
	for _, r := range indexRuns() {
		p := r.s.DefaultParams.Clone(r.params)
		check := func(how string, inner vm.Scheduler) *checkedSched {
			return &checkedSched{inner: inner, t: t, where: r.String() + " " + how}
		}

		// Fresh runs; the random one, checkpointed, is the reference
		// execution.
		cs := check("random", vm.NewRandomScheduler(r.seed))
		orig := r.s.Exec(scenario.ExecOptions{Seed: r.seed, Params: r.params, Scheduler: cs})
		if cs.picks == 0 {
			t.Fatalf("%s: no scheduling decisions checked", r)
		}
		var w *checkpoint.Writer
		orig = r.s.Exec(scenario.ExecOptions{Seed: r.seed, Params: r.params,
			ObserverFactory: func(m *vm.Machine) []vm.Observer {
				w = checkpoint.NewWriter(m, max(orig.Result.Steps/snapsPerRun, 4))
				return []vm.Observer{w}
			}})
		r.s.Exec(scenario.ExecOptions{Seed: r.seed, Params: r.params,
			Scheduler: check("pct", vm.NewPCTScheduler(r.seed, 4096, 3))})

		sched := orig.Trace.Schedule()
		inputs := func() vm.InputSource {
			return &vm.MapInputs{Values: orig.Result.InputsUsed, Base: vm.ZeroInputs}
		}
		same := func(how string, res *vm.Result) {
			t.Helper()
			if res.Outcome != orig.Result.Outcome || res.Steps != orig.Result.Steps {
				t.Errorf("%s %s: %s after %d steps, original %s after %d", r, how,
					res.Outcome, res.Steps, orig.Result.Outcome, orig.Result.Steps)
			}
		}

		// Schedule-forcing replay: every sleeper and timeout always enabled.
		rep := r.s.Exec(scenario.ExecOptions{Seed: r.seed, Params: r.params, RelaxTime: true,
			Scheduler: check("relaxed replay", vm.NewReplayScheduler(sched)), Inputs: inputs()})
		same("relaxed replay", rep.Result)

		// The pure baton protocol and a paused, stepwise-continued run.
		for _, how := range []string{"baton", "paused"} {
			m := vm.New(vm.Config{Seed: r.seed, Scheduler: check(how, vm.NewRandomScheduler(r.seed)),
				Inputs: r.s.Inputs(r.seed, p), DisableInline: how == "baton"})
			main := r.s.Build(m, p)
			m.Start(main)
			step := uint64(0)
			if how == "paused" {
				step = 37
			}
			for to := step; !m.Continue(to); to += step {
			}
			same(how, m.Finish())
		}

		// Restore from every checkpoint and run the suffix under the
		// recorded schedule, with and without time gates: the rebuilt
		// index must hold restored deadlines and restored object state.
		index := checkpoint.NewIndex(orig.Machine.StreamNames(), orig.Trace.Events)
		for i, snap := range w.Snapshots() {
			feeds, err := index.Feeds(snap)
			if err != nil {
				t.Fatalf("%s: feeds at %d: %v", r, snap.Seq, err)
			}
			for _, relax := range []bool{false, true} {
				how := fmt.Sprintf("restore#%d relax=%v", i, relax)
				m, err := vm.Restore(vm.Config{Seed: r.seed, Inputs: inputs(), RelaxTime: relax,
					Scheduler: check(how, vm.NewReplayScheduler(sched[snap.SchedPos:]))},
					func(m *vm.Machine) func(*vm.Thread) { return r.s.Build(m, p) }, snap, feeds)
				if err != nil {
					t.Fatalf("%s %s: %v", r, how, err)
				}
				m.Continue(0)
				same(how, m.Finish())
			}
		}
	}
}

// TestRunnableIndexTransitions drives every op that can flip another
// thread's enabledness — lock, unlock, send, receive, both try-variants,
// receive-timeout — against threads blocked on the same objects and on
// the clock, under many schedules, with and without time gates.
func TestRunnableIndexTransitions(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(0); seed < seeds; seed++ {
		for _, relax := range []bool{false, true} {
			cs := &checkedSched{inner: vm.NewRandomScheduler(seed), t: t,
				where: fmt.Sprintf("seed %d relax=%v", seed, relax)}
			m := vm.New(vm.Config{Seed: seed, Scheduler: cs, RelaxTime: relax})
			ch := m.NewChan("c", 2)
			mu := m.NewMutex("mu")
			s := m.Site("s")
			loop := func(n int, op func(*vm.Thread, int)) func(*vm.Thread) {
				return func(t *vm.Thread) {
					for i := 0; i < n; i++ {
						op(t, i)
					}
				}
			}
			m.Run(func(t *vm.Thread) {
				t.Spawn(s, "send", loop(6, func(t *vm.Thread, i int) { t.Send(s, ch, trace.Int(int64(i))) }))
				t.Spawn(s, "try-send", loop(6, func(t *vm.Thread, i int) { t.TrySend(s, ch, trace.Int(int64(i))) }))
				t.Spawn(s, "recv", loop(3, func(t *vm.Thread, _ int) { t.Recv(s, ch) }))
				t.Spawn(s, "try-recv", loop(8, func(t *vm.Thread, _ int) { t.TryRecv(s, ch) }))
				t.Spawn(s, "recv-timeout", loop(4, func(t *vm.Thread, _ int) { t.RecvTimeout(s, ch, 50) }))
				t.Spawn(s, "sleep", loop(3, func(t *vm.Thread, _ int) { t.Sleep(s, 40) }))
				for i := 0; i < 2; i++ {
					t.Spawn(s, "locker", loop(3, func(t *vm.Thread, _ int) {
						t.Lock(s, mu)
						t.Yield(s)
						t.Unlock(s, mu)
					}))
				}
			})
			if cs.picks == 0 {
				t.Fatalf("seed %d: no scheduling decisions checked", seed)
			}
		}
	}
}
