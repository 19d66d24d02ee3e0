package engine

import (
	"math"
	"testing"

	"transpimlib/internal/core"
	"transpimlib/internal/profiler"
	"transpimlib/internal/stats"
)

// TestFastPathMatchesReference runs identical request streams through
// a fast-path engine and a Reference engine and demands bit-identical
// outputs and identical modeled cycle accounting — the engine-level
// face of the operator differential tests.
func TestFastPathMatchesReference(t *testing.T) {
	specs := []struct {
		fn  core.Function
		par core.Params
		lo  float64
		hi  float64
	}{
		{core.Sigmoid, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}, -7.9, 7.9},
		{core.Sin, core.Params{Method: core.CORDIC}, 0, 2 * math.Pi},
		{core.Exp, core.Params{Method: core.MLUT, Interp: true, SizeLog2: 10}, -10, 10},
		{core.Tanh, core.Params{Method: core.Poly}, -7.9, 7.9},
	}
	cfg := Config{DPUs: 4, Shards: 1, MaxBatch: 256}
	fast, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	refCfg := cfg
	refCfg.Reference = true
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for _, sp := range specs {
		xs := stats.RandomInputs(sp.lo, sp.hi, 300, 11)
		fOut, fSt, err := fast.EvaluateBatch(sp.fn, sp.par, xs)
		if err != nil {
			t.Fatalf("%v/%v fast: %v", sp.fn, sp.par.Method, err)
		}
		rOut, rSt, err := ref.EvaluateBatch(sp.fn, sp.par, xs)
		if err != nil {
			t.Fatalf("%v/%v reference: %v", sp.fn, sp.par.Method, err)
		}
		for i := range xs {
			if math.Float32bits(fOut[i]) != math.Float32bits(rOut[i]) {
				t.Fatalf("%v/%v output %d: fast %v != reference %v (x=%v)",
					sp.fn, sp.par.Method, i, fOut[i], rOut[i], xs[i])
			}
		}
		if fSt.KernelCycles != rSt.KernelCycles {
			t.Fatalf("%v/%v kernel cycles: fast %d != reference %d",
				sp.fn, sp.par.Method, fSt.KernelCycles, rSt.KernelCycles)
		}
	}

	fs, rs := fast.Stats(), ref.Stats()
	if fs.KernelCycles != rs.KernelCycles {
		t.Fatalf("engine-wide kernel cycles: fast %d != reference %d", fs.KernelCycles, rs.KernelCycles)
	}
}

// TestRunLaneZeroAlloc pins the zero-allocation contract of the
// executor's per-lane call: once the engine is warm (tables resident,
// plan compiled, staging and scratch buffers constructed), running a
// lane's share of a batch through the cached plan's Exec allocates
// nothing — whether the batch binds a request's own slices (a
// single-segment batch) or the shard's flat staging buffers (a
// coalesced one).
func TestRunLaneZeroAlloc(t *testing.T) {
	e, err := New(Config{DPUs: 1, Shards: 1, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 256, 3)
	if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
		t.Fatal(err) // warm: tables built, plan compiled, pools primed
	}

	s := e.shards[0]
	p := e.plans.lookup(planKey{spec: makeSpec(fn, par), shard: 0, n: 256}, e.cache.generation())
	if p == nil {
		t.Fatal("warmup did not cache a compiled plan")
	}
	if !p.single {
		t.Fatal("function batch plan not marked single-function")
	}
	ys := make([]float32, 256)
	ctx := s.dpus[0].NewCtx()
	// The pipeline is idle (the warmup request completed), so driving
	// the plan and the staging buffers directly is safe.
	for _, c := range []struct {
		name    string
		in, out []float32
	}{
		{"in-place", xs, ys},
		{"flat", s.inBuf[:256], s.outBuf[:256]},
	} {
		copy(c.in, xs)
		p.ex.Bind([][]float32{c.in}, nil, c.out, 256, p.perDPU)
		if avg := testing.AllocsPerRun(200, func() {
			p.ex.RunLane(ctx, 0, 0, 0, s.arena[0], true)
		}); avg != 0 {
			t.Fatalf("%s: RunLane allocates %.1f objects per batch, want 0", c.name, avg)
		}
	}
}

// TestProfileAllocsMatchOff: the pim_* kernel metrics and the
// profiler read the executor's persistent per-lane record, the launch
// reuses its pre-launch snapshots, and the labels are rendered once per
// spec, so turning Profile, Profiler or Ledger on adds no allocation to
// a warm request.
func TestProfileAllocsMatchOff(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 1024, 5)
	allocs := func(cfg Config) float64 {
		cfg.DPUs, cfg.Shards = 4, 1
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
			t.Fatal(err) // warm: tables built, plan compiled
		}
		return testing.AllocsPerRun(200, func() {
			if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := allocs(Config{})
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"Profile", Config{Profile: true}},
		{"Profiler", Config{Profiler: profiler.Config{Enabled: true}}},
		{"Ledger", Config{Ledger: true}},
	} {
		if on := allocs(c.cfg); on != off {
			t.Errorf("warm 1K request: %.1f allocs with %s, %.1f with observers off", on, c.name, off)
		}
	}
}

// TestWarmRequestAllocs pins the warm round trip: requests, done
// channels, batches, launch records and Ctxs are all reused, so
// EvaluateBatch allocates only its output slice and EvaluateBatchInto
// nothing.
func TestWarmRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 1024, 5)
	e, err := New(Config{DPUs: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	want, _, err := e.EvaluateBatch(fn, par, xs)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
			t.Fatal(err)
		}
	}); avg != 1 {
		t.Errorf("warm 1K EvaluateBatch: %.1f allocs, want 1 (the output)", avg)
	}
	dst := make([]float32, len(xs))
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := e.EvaluateBatchInto(dst, "", fn, par, xs); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm 1K EvaluateBatchInto: %.1f allocs, want 0", avg)
	}
	for i := range want {
		if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
			t.Fatalf("elem %d: EvaluateBatchInto %x, EvaluateBatch %x", i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
		}
	}
}
