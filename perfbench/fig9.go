package main

import (
	"fmt"
	"math"
	"time"

	"transpimlib/internal/pimsim"
	"transpimlib/internal/workloads"
)

// paper-fig9: the Fig. 9 runs as internal/workloads does them —
// Blackscholes with 4 kits, sigmoid and softmax with 3 kits each — at
// the scaled 4-DPU geometry, one runner call per request.
const fig9DPUs = 4

// fig9Kits are the host-side kit builds (table generation) of the
// Fig. 9 runs: the benchmark's set-up.
type fig9Kits struct {
	bs  []workloads.Kit // Blackscholes kits
	act []workloads.Kit // sigmoid and softmax kits
}

func buildFig9Kits() fig9Kits {
	mlut, llut := workloads.MLUTIKit(10), workloads.LLUTIKit(12)
	return fig9Kits{
		bs:  []workloads.Kit{workloads.PolyBaselineKit(), mlut, llut, workloads.FixedLLUTIKit(12)},
		act: []workloads.Kit{workloads.PolyActivationKit(), mlut, llut},
	}
}

// fig9 serves runner calls and checks each against the first call of
// the same runner: modeled seconds and RMSE must not drift.
type fig9 struct {
	runners []func() (workloads.Result, error)
	first   []*workloads.Result
}

func newFig9(k fig9Kits, seed uint64) *fig9 {
	opts := workloads.GenOptions(fig9DPUs*(workloads.FullBlackscholesElements/workloads.FullDPUs), seed)
	acts := workloads.GenActivations(fig9DPUs*(workloads.FullActivationElements/workloads.FullDPUs), seed)
	f := &fig9{}
	for _, kit := range k.bs {
		kit := kit
		f.runners = append(f.runners, func() (workloads.Result, error) { return workloads.BlackscholesPIM(fig9DPUs, opts, kit) })
	}
	for _, kit := range k.act {
		kit := kit
		f.runners = append(f.runners,
			func() (workloads.Result, error) { return workloads.SigmoidPIM(fig9DPUs, acts, kit) },
			func() (workloads.Result, error) { return workloads.SoftmaxPIM(fig9DPUs, acts, kit) })
	}
	f.first = make([]*workloads.Result, len(f.runners))
	return f
}

// run serves request seq and returns its result for the modeled-time
// metrics along with the client's view.
func (f *fig9) run(seq int) (workloads.Result, result) {
	i := seq % len(f.runners)
	t0 := time.Now()
	r, err := f.runners[i]()
	t1 := time.Now()
	if err == nil {
		if ref := f.first[i]; ref == nil {
			f.first[i] = &r
		} else if r.Seconds() != ref.Seconds() || math.Float64bits(r.Errors.RMSE) != math.Float64bits(ref.Errors.RMSE) {
			err = fmt.Errorf("%s/%s drifted: modeled %v s, rmse %v; first iteration %v s, rmse %v",
				r.Workload, r.Variant, r.Seconds(), r.Errors.RMSE, ref.Seconds(), ref.Errors.RMSE)
		}
	}
	return r, result{start: t0, end: t1, elems: r.Elements, kind: kindRunner, err: err}
}

// fig9Server adapts fig9 to the closed loop, keeping the modeled totals.
type fig9Server struct {
	f               *fig9
	kernelS, transS float64
	elements        int
}

func (s *fig9Server) do(_, seq int) result {
	r, res := s.f.run(seq)
	if res.err == nil {
		s.kernelS += r.KernelSeconds
		s.transS += r.TransferSeconds
		s.elements += r.Elements
	}
	return res
}

func runFig9(o options) (*report, error) {
	rep := newReport()
	kits, setup, err := timedSetups(setupReps, func() (fig9Kits, error) { return buildFig9Kits(), nil }, func(fig9Kits) {})
	if err != nil {
		return nil, err
	}
	f := newFig9(kits, uint64(o.seed))
	warmup := len(f.runners) // one iteration: the reference results
	s := &fig9Server{f: f}
	if p := closedLoop(s, 1, 0, forever, warmup, nil); p.firstErr() != nil {
		return nil, fmt.Errorf("warm-up: %w", p.firstErr())
	}
	d := o.duration()
	if o.trace {
		d /= 2
	}
	s = &fig9Server{f: f}
	p := closedLoop(s, 1, warmup, d, 0, nil)
	rep.count(p)

	walls := p.wallsUS(-1)
	cycles := s.kernelS * pimsim.DefaultClockHz
	if !o.trace {
		served := float64(p.served())
		rep.metrics["setup_s"] = setup
		rep.metrics["elems_per_s"] = served / p.wall.Seconds()
		rep.metrics["p50_us"] = quantile(walls, 0.50)
		rep.metrics["p95_us"] = quantile(walls, 0.95)
		rep.metrics["alloc_bytes_per_elem"] = ratio(float64(p.allocBytes), served)
		rep.metrics["modeled_s_per_melem"] = ratio(s.kernelS+s.transS, float64(s.elements)) * 1e6
		rep.note("p50_us and p95_us over %d runner calls (1 client)", len(walls))
		rep.note("p99_us %.6g us over %d runner calls (printed, not gated: see README.md)", quantile(walls, 0.99), len(walls))
		return rep, nil
	}

	// Traced run: the runners carry no spans of their own, so the
	// trace is the client span of each call.
	t := &fig9Server{f: f}
	traced := closedLoop(t, 1, warmup, d, traceCap, nil)
	rep.count(traced)
	pairs := make([]clientTrace, len(traced.calls))
	for i, c := range traced.calls {
		pairs[i] = clientTrace{call: c}
	}
	path, err := writeSpans(o.spansDir, o.workload, o.seed, pairs)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.note("client spans of %d runner calls written to %s", len(pairs), path)
	for _, m := range perLayer {
		rep.metrics[m.Name] = 0
	}
	rep.metrics["trace.overhead_ratio"] = ratio(median(traced.wallsUS(-1)), median(walls))
	rep.metrics["pimsim.kernel_cycles_per_elem"] = ratio(cycles, float64(s.elements))
	rep.metrics["pimsim.transfer_share"] = ratio(s.transS, s.kernelS+s.transS)
	rep.metrics["pimsim.sim_mcycles_per_s"] = cycles / 1e6 / p.wall.Seconds()
	return rep, nil
}
