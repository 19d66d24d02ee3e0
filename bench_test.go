// Benchmark harness: one testing.B benchmark per table and figure of
// the paper. Wall-clock numbers measure the simulator on the host; the
// reproduction's actual results are the custom metrics each benchmark
// reports — pim-cycles/elem (Figs. 5, 8), setup-s (Fig. 6),
// table-bytes (Fig. 7) and modeled-s (Fig. 9) — which are
// host-independent.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// One figure:
//
//	go test -bench=Fig5 -benchmem
package transpimlib

import (
	"testing"

	"transpimlib/internal/cordic"
	"transpimlib/internal/core"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/rangered"
	"transpimlib/internal/stats"
	"transpimlib/internal/workloads"
)

// --- Table 1: CORDIC constant generation ---

func BenchmarkTable1CORDICTables(b *testing.B) {
	for _, mode := range []cordic.Mode{cordic.Circular, cordic.Hyperbolic, cordic.Linear} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cordic.NewTables(mode, 32)
			}
		})
	}
}

// --- Table 2: support matrix ---

func BenchmarkTable2SupportMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.SupportMatrix() == "" {
			b.Fatal("empty matrix")
		}
	}
}

// --- Figure 5: execution cycles per element, sine ---

func fig5Cases() []core.Params {
	return []core.Params{
		{Method: core.CORDIC, Iterations: 30},
		{Method: core.CORDICLUT, Iterations: 22, HeadBits: 10},
		{Method: core.MLUT, SizeLog2: 12},
		{Method: core.MLUT, Interp: true, SizeLog2: 12},
		{Method: core.LLUT, SizeLog2: 12},
		{Method: core.LLUT, Interp: true, SizeLog2: 12},
		{Method: core.LLUT, Interp: true, SizeLog2: 12, Placement: pimsim.InMRAM},
		{Method: core.LLUTFixed, SizeLog2: 12},
		{Method: core.LLUTFixed, Interp: true, SizeLog2: 12},
		{Method: core.Poly, Degree: 9},
	}
}

func BenchmarkFig5SineCycles(b *testing.B) {
	lo, hi := core.Sin.Domain()
	inputs := stats.RandomInputs(lo, hi, 4096, 5)
	for _, p := range fig5Cases() {
		b.Run(p.Label(), func(b *testing.B) {
			dpu := pimsim.NewDPU(0, pimsim.Default(), pimsim.DefaultTasklets)
			op, err := core.Build(core.Sin, p, dpu)
			if err != nil {
				b.Fatal(err)
			}
			dpu.ResetCycles()
			ctx := dpu.NewCtx()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Eval(ctx, inputs[i%len(inputs)])
			}
			b.ReportMetric(float64(dpu.Cycles())/float64(b.N), "pim-cycles/op")
		})
	}
}

// --- Figure 6: setup time ---

func BenchmarkFig6SineSetup(b *testing.B) {
	for _, p := range fig5Cases() {
		b.Run(p.Label(), func(b *testing.B) {
			var setup float64
			for i := 0; i < b.N; i++ {
				dpu := pimsim.NewDPU(0, pimsim.Default(), pimsim.DefaultTasklets)
				op, err := core.Build(core.Sin, p, dpu)
				if err != nil {
					b.Fatal(err)
				}
				setup = op.SetupSeconds()
			}
			b.ReportMetric(setup, "setup-s")
		})
	}
}

// --- Figure 7: memory consumption ---

func BenchmarkFig7SineMemory(b *testing.B) {
	for _, p := range fig5Cases() {
		b.Run(p.Label(), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				dpu := pimsim.NewDPU(0, pimsim.Default(), pimsim.DefaultTasklets)
				op, err := core.Build(core.Sin, p, dpu)
				if err != nil {
					b.Fatal(err)
				}
				bytes = op.TableBytes()
			}
			b.ReportMetric(float64(bytes), "table-bytes")
		})
	}
}

// --- Figure 8: range reduction/extension ---

func BenchmarkFig8RangeReduction(b *testing.B) {
	cases := []struct {
		name string
		f    func(*pimsim.Ctx)
	}{
		{"sin", func(c *pimsim.Ctx) {
			r := rangered.To2Pi(c, 123.456)
			theta, q := rangered.FoldQuadrant(c, r)
			rangered.ApplySinQuadrant(c, theta, theta, q)
		}},
		{"exp", func(c *pimsim.Ctx) {
			r, k := rangered.SplitExp(c, 7.7)
			rangered.JoinExp(c, r, k)
		}},
		{"log", func(c *pimsim.Ctx) {
			m, e := rangered.SplitLog(c, 1234.5)
			rangered.JoinLog(c, m, e)
		}},
		{"sqrt", func(c *pimsim.Ctx) {
			m, h := rangered.SplitSqrt(c, 1234.5)
			rangered.JoinSqrt(c, m, h)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			dpu := pimsim.NewDPU(0, pimsim.Default(), pimsim.DefaultTasklets)
			ctx := dpu.NewCtx()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.f(ctx)
			}
			b.ReportMetric(float64(dpu.Cycles())/float64(b.N), "pim-cycles/op")
		})
	}
}

// --- Figure 9: full workloads (scaled geometry, full per-core load) ---

const benchDPUs = 4

func BenchmarkFig9Blackscholes(b *testing.B) {
	opts := workloads.GenOptions(benchDPUs*3930, 1)
	kits := []workloads.Kit{
		workloads.PolyBaselineKit(),
		workloads.MLUTIKit(10),
		workloads.LLUTIKit(12),
		workloads.FixedLLUTIKit(12),
	}
	for _, kit := range kits {
		b.Run(kit.Name, func(b *testing.B) {
			var r workloads.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = workloads.BlackscholesPIM(benchDPUs, opts, kit)
				if err != nil {
					b.Fatal(err)
				}
			}
			full := workloads.ProjectFull(r, workloads.FullBlackscholesElements)
			b.ReportMetric(full.Seconds(), "modeled-s")
			b.ReportMetric(full.Errors.RMSE, "rmse")
		})
	}
	b.Run("cpu-32t-model", func(b *testing.B) {
		var r workloads.Result
		for i := 0; i < b.N; i++ {
			r = workloads.BlackscholesCPUModeled(workloads.FullBlackscholesElements, 32)
		}
		b.ReportMetric(r.Seconds(), "modeled-s")
	})
}

func benchActivation(b *testing.B, name string,
	run func(int, []float32, workloads.Kit) (workloads.Result, error)) {
	acts := workloads.GenActivations(benchDPUs*11789, 2)
	kits := []workloads.Kit{
		workloads.PolyActivationKit(),
		workloads.MLUTIKit(10),
		workloads.LLUTIKit(12),
	}
	for _, kit := range kits {
		b.Run(kit.Name, func(b *testing.B) {
			var r workloads.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = run(benchDPUs, acts, kit)
				if err != nil {
					b.Fatal(err)
				}
			}
			full := workloads.ProjectFull(r, workloads.FullActivationElements)
			b.ReportMetric(full.Seconds(), "modeled-s")
			b.ReportMetric(full.Errors.RMSE, "rmse")
		})
	}
	_ = name
}

func BenchmarkFig9Sigmoid(b *testing.B) {
	benchActivation(b, "sigmoid", workloads.SigmoidPIM)
}

func BenchmarkFig9Softmax(b *testing.B) {
	benchActivation(b, "softmax", workloads.SoftmaxPIM)
}

// --- Serving engine: cache-warm EvaluateBatch vs. the cold one-shot
// path. The cold path rebuilds tables (generation + transfer) for
// every batch the way a fresh core.Build/Lib would; the warm engine
// pays setup once and afterwards only the pipelined
// transfer/compute/drain costs. The modeled-s metrics make the gap
// host-independent: warm modeled-s must come out well below cold. ---

func BenchmarkEngineWarmVsCold(b *testing.B) {
	const n = 2048
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = -6 + 12*float32(i)/float32(n)
	}
	spec := Config{Method: LLUT, Interpolated: true, SizeLog2: 12}

	b.Run("cold-one-shot", func(b *testing.B) {
		var modeled float64
		out := make([]float32, n)
		for i := 0; i < b.N; i++ {
			lib, err := New(spec, Sigmoid) // rebuilds + retransfers tables
			if err != nil {
				b.Fatal(err)
			}
			lib.EvalSlice(Sigmoid, xs, out)
			modeled = lib.SetupSeconds() +
				float64(lib.Cycles())/pimsim.DefaultClockHz
		}
		b.ReportMetric(modeled, "modeled-s")
	})

	b.Run("engine-warm", func(b *testing.B) {
		// One shard so the single warm-up request makes every later
		// request a guaranteed cache hit (residency is per shard).
		eng, err := NewEngine(EngineConfig{DPUs: 4, Shards: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		if _, _, err := eng.EvaluateBatch(Sigmoid, spec, xs); err != nil {
			b.Fatal(err) // warm the table cache
		}
		var modeled float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := eng.EvaluateBatch(Sigmoid, spec, xs)
			if err != nil {
				b.Fatal(err)
			}
			if st.SetupSeconds != 0 || !st.CacheHit {
				b.Fatalf("warm request rebuilt tables: %+v", st)
			}
			modeled = st.ModeledSeconds()
		}
		b.ReportMetric(modeled, "modeled-s")
	})
}

// --- Fused batch fast path vs. the per-element reference interpreter.
// Both engines model identical cycles (enforced by the differential
// tests); the benchmark measures host-side throughput of the compute
// pipeline. elems/s is the headline metric; run with -benchmem to see
// the steady-state allocation profile. ---

func BenchmarkEngineThroughput(b *testing.B) {
	const n = 1 << 16
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = -6 + 12*float32(i)/float32(n)
	}
	spec := Config{Method: LLUT, Interpolated: true, SizeLog2: 12}

	run := func(b *testing.B, cfg EngineConfig) {
		eng, err := NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		if _, _, err := eng.EvaluateBatch(Sigmoid, spec, xs); err != nil {
			b.Fatal(err) // warm the table cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.EvaluateBatch(Sigmoid, spec, xs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "elems/s")
	}

	b.Run("fast", func(b *testing.B) {
		run(b, EngineConfig{DPUs: 4, Shards: 1, MaxBatch: n})
	})
	b.Run("reference", func(b *testing.B) {
		run(b, EngineConfig{DPUs: 4, Shards: 1, MaxBatch: n, Reference: true})
	})
}

// --- SoA mirror kernels: host ns per element of Lib.EvalSlice at 1K
// elements for the three specs of the serve-1k benchmark mix, inputs
// uniform over each function's domain. The kernel floor under every
// serving-layer number. ---

func BenchmarkMirrorKernels(b *testing.B) {
	const n = 1024
	cases := []struct {
		name string
		fn   Function
		spec Config
	}{
		{"sigmoid-llut-i", Sigmoid, Config{Method: LLUT, Interpolated: true, SizeLog2: 12}},
		{"gelu-dllut-i", GELU, Config{Method: DLLUT, Interpolated: true, SizeLog2: 12}},
		{"exp-llut-fixed-i", Exp, Config{Method: LLUTFixed, Interpolated: true, SizeLog2: 12}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			lib, err := New(c.spec, c.fn)
			if err != nil {
				b.Fatal(err)
			}
			lo, hi := c.fn.Domain()
			xs := stats.RandomInputs(lo, hi, n, 1)
			out := make([]float32, n)
			lib.EvalSlice(c.fn, xs, out) // warm pass
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lib.EvalSlice(c.fn, xs, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/elem")
		})
	}
}

// --- §4.2.4: per-function microbenchmarks through the public API ---

func BenchmarkPublicAPI(b *testing.B) {
	cfg := Config{Method: LLUT, Interpolated: true, SizeLog2: 12, Placement: InMRAM}
	lib, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	calls := []struct {
		name string
		f    func(float32) float32
		x    float32
	}{
		{"sinf", lib.Sinf, 1.1},
		{"tanf", lib.Tanf, 1.1},
		{"tanhf", lib.Tanhf, 1.1},
		{"expf", lib.Expf, 1.1},
		{"logf", lib.Logf, 42},
		{"sqrtf", lib.Sqrtf, 42},
		{"geluf", lib.Geluf, 1.1},
	}
	for _, c := range calls {
		b.Run(c.name, func(b *testing.B) {
			lib.ResetCycles()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.f(c.x)
			}
			b.ReportMetric(float64(lib.Cycles())/float64(b.N), "pim-cycles/op")
		})
	}
}
