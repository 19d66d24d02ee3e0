package engine_test

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/engine"
	"transpimlib/internal/faultsim"
	"transpimlib/internal/fusion"
	"transpimlib/internal/stats"
	"transpimlib/internal/telemetry"
	"transpimlib/internal/workloads"
)

// schedRun is what one pass of the scheduling workload leaves behind.
type schedRun struct {
	outs   [][]float32
	cycles []uint64 // per request, in submission order
	ledger telemetry.LedgerSnapshot
	events []faultsim.Event
}

// runSchedWorkload runs one mixed workload under GOMAXPROCS=procs on a
// single-shard engine with a fault plan and the ledger on: after a
// table warm-up, a coalesced round of identical concurrent requests,
// the fused programs, and function requests split across MaxBatch,
// twice over.
func runSchedWorkload(t *testing.T, procs int, plan faultsim.Plan) schedRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	e, err := engine.New(engine.Config{
		DPUs: 4, Shards: 1, MaxBatch: 1024,
		// The window lets the concurrent round coalesce into one batch.
		BatchWindow: 150 * time.Millisecond,
		Ledger:      true,
		Faults:      &plan,
		Reliability: engine.ReliabilityConfig{HedgeRatio: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var progs []*fusion.Compiled
	for _, cs := range workloads.FusedCases() {
		c, err := e.CompileProgram(cs.Build(), workloads.FusedParams())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, c)
	}
	var run schedRun
	keep := func(out []float32, cycles uint64) {
		run.outs = append(run.outs, out)
		run.cycles = append(run.cycles, cycles)
	}
	par := workloads.FusedParams()
	// Build every table up front under their own tenant: a table miss
	// charges the measured host generation time (Fig. 6) as setup, which
	// no two runs share, so only the warm-up row carries it.
	for _, fn := range []core.Function{core.Sigmoid, core.Tanh} {
		ys, st, err := e.EvaluateBatchTenant(warmTenant, fn, par, stats.RandomInputs(-1, 1, 64, 1))
		if err != nil {
			t.Fatalf("warm-up %v: %v", fn, err)
		}
		keep(ys, st.KernelCycles)
	}
	for i, cs := range workloads.FusedCases() {
		inputs, scalars := cs.Gen(64)
		out, st, err := e.EvaluateProgramTenant(warmTenant, progs[i], inputs, scalars)
		if err != nil {
			t.Fatalf("warm-up %s: %v", cs.Name, err)
		}
		keep(out, st.KernelCycles)
	}
	for round := 0; round < 2; round++ {
		// Identical inputs and one tenant, so the coalesced batch and its
		// ledger shares do not depend on the order the callers arrive in.
		const callers, n = 4, 200
		xs := stats.RandomInputs(-6, 6, n, uint64(10+round))
		outs := make([][]float32, callers)
		sts := make([]engine.RequestStats, callers)
		errs := make([]error, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				outs[c], sts[c], errs[c] = e.EvaluateBatchTenant("coalesced", core.Sigmoid, par, xs)
			}(c)
		}
		close(start)
		wg.Wait()
		for c := 0; c < callers; c++ {
			if errs[c] != nil {
				t.Fatalf("round %d caller %d: %v", round, c, errs[c])
			}
			if sts[c].BatchElements != callers*n {
				t.Fatalf("round %d caller %d rode a %d-element batch, want one coalesced %d-element batch",
					round, c, sts[c].BatchElements, callers*n)
			}
			keep(outs[c], sts[c].KernelCycles)
		}

		for i, cs := range workloads.FusedCases() {
			inputs, scalars := cs.Gen(1000)
			out, st, err := e.EvaluateProgramTenant("programs", progs[i], inputs, scalars)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, cs.Name, err)
			}
			keep(out, st.KernelCycles)
		}

		xs = stats.RandomInputs(-7.5, 7.5, 2500, uint64(20+round)) // three batches
		ys, st, err := e.EvaluateBatchTenant("split", core.Tanh, par, xs)
		if err != nil {
			t.Fatalf("round %d tanh: %v", round, err)
		}
		keep(ys, st.KernelCycles)
	}
	run.ledger = e.Ledger()
	for i := range run.ledger.Rows {
		if run.ledger.Rows[i].Tenant == warmTenant {
			run.ledger.Rows[i].ModeledSeconds = 0 // holds the measured generation time
		}
	}
	run.events = e.FaultEvents()
	return run
}

// warmTenant owns the requests that build the tables.
const warmTenant = "warm-up"

// TestHostSchedulingInvariance: host scheduling never reaches the cycle
// model. The same mixed workload — coalesced, program and fault-plan
// batches — run under GOMAXPROCS=1 and GOMAXPROCS=N gives identical
// outputs, per-request KernelCycles, ledger rows and fault events.
func TestHostSchedulingInvariance(t *testing.T) {
	plan, err := faultsim.ParsePlan(fusedChaosPlan)
	if err != nil {
		t.Fatal(err)
	}
	procs := max(runtime.NumCPU(), 4) // at least one worker per lane
	one, many := runSchedWorkload(t, 1, plan), runSchedWorkload(t, procs, plan)
	if len(one.outs) != len(many.outs) {
		t.Fatalf("%d requests under GOMAXPROCS=1, %d under %d", len(one.outs), len(many.outs), procs)
	}
	for i := range one.outs {
		a, b := one.outs[i], many.outs[i]
		if len(a) != len(b) {
			t.Fatalf("request %d: %d outputs vs %d", i, len(a), len(b))
		}
		for j := range a {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				t.Fatalf("request %d output %d: %v under GOMAXPROCS=1, %v under %d", i, j, a[j], b[j], procs)
			}
		}
	}
	if !reflect.DeepEqual(one.cycles, many.cycles) {
		t.Errorf("KernelCycles differ:\nGOMAXPROCS=1: %v\nGOMAXPROCS=%d: %v", one.cycles, procs, many.cycles)
	}
	if !reflect.DeepEqual(one.ledger, many.ledger) {
		t.Errorf("ledger rows differ:\nGOMAXPROCS=1: %+v\nGOMAXPROCS=%d: %+v", one.ledger, procs, many.ledger)
	}
	if len(one.events) == 0 {
		t.Fatal("the fault plan injected nothing")
	}
	if !reflect.DeepEqual(one.events, many.events) {
		t.Errorf("fault events differ: %d under GOMAXPROCS=1, %d under %d", len(one.events), len(many.events), procs)
	}
}
