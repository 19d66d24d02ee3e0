// Package transpimlib is a Go reproduction of TransPimLib (Item et
// al., ISPASS 2023): a library of CORDIC-based and LUT-based methods
// for transcendental and other hard-to-calculate functions on
// general-purpose processing-in-memory systems.
//
// The original library runs on real UPMEM hardware; this reproduction
// runs on a built-in cycle-level PIM-system simulator (a generic
// UPMEM-like machine: in-order multithreaded 32-bit cores beside each
// DRAM bank, a 64-KB scratchpad, software floating point). Every
// evaluation both returns the mathematical result and charges the
// cycles the equivalent PIM instruction sequence would cost, so the
// performance/accuracy/memory trade-offs of the paper are measurable
// from ordinary Go code.
//
// # One-shot use
//
// Basic use mirrors the paper's host-setup + device-call split:
//
//	lib, err := transpimlib.New(transpimlib.Config{
//		Method:       transpimlib.LLUT,
//		Interpolated: true,
//	}, transpimlib.Sin, transpimlib.Exp)
//	...
//	y := lib.Sinf(1.0472)        // computed "on" the PIM core
//	cycles := lib.Cycles()       // the hardware-counter view
//	setup := lib.SetupSeconds()  // host-side table generation + transfer
//
// # Serving
//
// For sustained traffic, Engine is a long-lived runtime over a
// multi-core PIM system: it caches table setup per (function, method,
// size, placement) so repeated requests skip the setup cost, coalesces
// concurrent small requests into batches sharded across core groups,
// and runs each batch to completion — transfer-in, kernel,
// transfer-out — on one goroutine per shard:
//
//	eng, err := transpimlib.NewEngine(transpimlib.EngineConfig{DPUs: 8})
//	...
//	defer eng.Close()
//	ys, stats, err := eng.EvaluateBatch(transpimlib.Sigmoid,
//		transpimlib.Config{Method: transpimlib.LLUT, Interpolated: true}, xs)
//
// EvaluateBatch is safe for concurrent use; each call reports its
// wall-clock latency and modeled per-stage costs.
package transpimlib
