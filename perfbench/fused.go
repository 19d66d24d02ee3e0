package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"time"

	tp "transpimlib"
	"transpimlib/internal/workloads"
)

// fused-chaos: one client alternates the three fused programs at 4,096
// elements with 1,024-element tanh requests on a 4-DPU single-shard
// engine with every observer on and a seeded fault plan that hits
// retry, remap and host-mirror degrade.
const (
	fusedElems  = 4096
	tanhElems   = 1024
	fusedPool   = 4 // distinct payloads per request kind, each with a golden
	faultPlan   = "seed=7,dpufail=0.05,dpuslow=0.1x4,bitflip=0.01,transfer=0.02"
	fusedTrace  = 64 // the workload's own trace ring depth
	fusedTenant = "bench"
)

// fusedSpec is workloads.FusedParams as a public Config: the fused
// programs' transcendental nodes and the tanh requests share it.
var fusedSpec = tp.Config{Method: tp.LLUT, Interpolated: true}

// programInput is one payload of a fused program.
type programInput struct {
	inputs  [][]float32
	scalars []float32
}

type fused struct {
	seed       uint64
	cases      []workloads.FusedCase
	progIn     [][]programInput // [case][i]
	progGolden [][][]float32
	tanhIn     [][]float32
	tanhGolden [][]float32
}

// fusedEngine is the workload's engine configuration; observers false
// gives the observer-off twin with the same fault plan.
func fusedEngine(traceDepth int, observers bool, faults string) tp.EngineConfig {
	cfg := tp.EngineConfig{DPUs: 4, Shards: 1, Faults: faults}
	if observers {
		cfg.TraceDepth = traceDepth
		cfg.Ledger = true
		cfg.Timeline = tp.TimelineConfig{Enabled: true}
		cfg.Profile = true
		cfg.Profiler = tp.ProfilerConfig{Enabled: true}
		cfg.Accuracy = tp.AccuracyConfig{Enabled: true}
	}
	return cfg
}

func runFused(o options) (*report, error) {
	w := &fused{seed: uint64(o.seed), cases: workloads.FusedCases()}
	rng := rand.New(rand.NewSource(o.seed))
	for _, cs := range w.cases {
		var ins []programInput
		for i := 0; i < fusedPool; i++ {
			// The case's own value ranges, in a seeded order.
			inputs, scalars := cs.Gen(fusedElems)
			for _, v := range inputs {
				rng.Shuffle(len(v), func(a, b int) { v[a], v[b] = v[b], v[a] })
			}
			ins = append(ins, programInput{inputs, scalars})
		}
		w.progIn = append(w.progIn, ins)
	}
	for i := 0; i < fusedPool; i++ {
		w.tanhIn = append(w.tanhIn, domainInputs(tp.Tanh, tanhElems, mix64(w.seed)+uint64(i)))
	}

	// Goldens from a clean engine: no faults, no observers.
	clean, err := tp.NewEngine(fusedEngine(0, false, ""))
	if err != nil {
		return nil, err
	}
	defer clean.Close()
	for c, cs := range w.cases {
		prog, err := clean.CompileProgram(cs.Build(), fusedSpec)
		if err != nil {
			return nil, err
		}
		var gs [][]float32
		for _, in := range w.progIn[c] {
			ys, _, err := clean.EvaluateProgram(prog, in.inputs, in.scalars)
			if err != nil {
				return nil, fmt.Errorf("golden %s: %w", cs.Name, err)
			}
			gs = append(gs, ys)
		}
		w.progGolden = append(w.progGolden, gs)
	}
	for _, xs := range w.tanhIn {
		ys, _, err := clean.EvaluateBatch(tp.Tanh, fusedSpec, xs)
		if err != nil {
			return nil, fmt.Errorf("golden tanh: %w", err)
		}
		w.tanhGolden = append(w.tanhGolden, ys)
	}
	return runServing(o, w)
}

func (w *fused) clients() int { return 1 }
func (w *fused) warmup() int  { return 48 }

func (w *fused) open(traceDepth int) (deployment, error) {
	if traceDepth == 0 {
		traceDepth = fusedTrace
	}
	return w.openConfig(fusedEngine(traceDepth, true, faultPlan))
}

// openConfig builds the engine, compiles the programs and serves each
// request kind once, so every table is resident.
func (w *fused) openConfig(cfg tp.EngineConfig) (*fusedDeployment, error) {
	e, err := tp.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	d := &fusedDeployment{engineDeployment: engineDeployment{e: e}, w: w}
	d.serve = d.serveOne
	for _, cs := range w.cases {
		prog, err := e.CompileProgram(cs.Build(), fusedSpec)
		if err != nil {
			e.Close()
			return nil, err
		}
		d.progs = append(d.progs, prog)
	}
	for seq := -2 * len(w.cases); seq < 0; seq++ {
		if r := d.serveOne(e, 0, seq); r.err != nil {
			e.Close()
			return nil, fmt.Errorf("prewarm: %w", r.err)
		}
	}
	return d, nil
}

// fusedDeployment serves the fused-chaos sequence from one engine.
type fusedDeployment struct {
	engineDeployment
	w         *fused
	progs     []*tp.CompiledProgram
	funcCalls atomic.Int64 // function requests served, prewarm included
}

// serveOne serves request seq: even seqs run the programs in turn,
// odd seqs send tanh requests.
func (d *fusedDeployment) serveOne(e *tp.Engine, _ int, seq int) result {
	w := d.w
	i := int(mix64(w.seed^uint64(seq)) % fusedPool)
	if seq%2 == 0 {
		c := (seq / 2) % len(w.cases)
		if c < 0 {
			c += len(w.cases)
		}
		in := w.progIn[c][i]
		t0 := time.Now()
		ys, st, err := e.EvaluateProgramAs(fusedTenant, d.progs[c], in.inputs, in.scalars)
		r := result{start: t0, end: time.Now(), elems: fusedElems, kind: kindProgram, traceID: st.TraceID,
			latency: st.Latency, fusedBytes: st.FusedBytes, perOpBytes: st.PerOpBytes, err: err}
		if err == nil {
			r.err = checkBits(w.cases[c].Name, ys, w.progGolden[c][i])
		}
		return r
	}
	d.funcCalls.Add(1)
	t0 := time.Now()
	ys, st, err := e.EvaluateBatchAs(fusedTenant, tp.Tanh, fusedSpec, w.tanhIn[i])
	r := result{start: t0, end: time.Now(), elems: tanhElems, kind: kindFunc, traceID: st.TraceID, latency: st.Latency, err: err}
	if err == nil {
		r.err = checkBits("tanh", ys, w.tanhGolden[i])
	}
	return r
}

func (w *fused) kernelFloor() (float64, float64, error) {
	ns, err := kernelFloor([]kernelJob{{fn: tp.Tanh, spec: fusedSpec, inputs: w.tanhIn}})
	return ns, tanhElems, err
}

// check reconciles the observers: profiler wall cycles, ledger cycles
// and the engine's kernel cycles must agree exactly.
func (w *fused) check(dep deployment, rep *report) {
	e := dep.(*fusedDeployment).e
	prof, ok := e.ProfileSnapshot()
	if !ok {
		rep.fail("profiler is off")
		return
	}
	var ledger uint64
	for _, r := range e.Ledger().Rows {
		ledger += r.KernelCycles
	}
	if st := e.Stats(); prof.TotalWall != ledger || ledger != st.KernelCycles {
		rep.fail("cycle reconciliation: profiler %d, ledger %d, engine %d", prof.TotalWall, ledger, st.KernelCycles)
	}
}

// layers adds the fusion and accuracy-watcher metrics of the base
// phase, then replays the phase's request sequence on the
// observer-off twin: the on/off cost and the fault-log comparison.
func (w *fused) layers(dep deployment, base phase, rep *report) error {
	d := dep.(*fusedDeployment)
	var fusedB, perOpB, progElems int
	for _, c := range base.calls {
		if c.kind == kindProgram {
			fusedB += c.fusedBytes
			perOpB += c.perOpBytes
			progElems += c.elems
		}
	}
	rep.metrics["fusion.bytes_per_elem"] = ratio(float64(fusedB), float64(progElems))
	rep.metrics["fusion.saved_bytes_ratio"] = ratio(float64(perOpB-fusedB), float64(perOpB))
	if acc, ok := d.e.Accuracy(); ok {
		rep.metrics["accwatch.samples_per_req"] = ratio(float64(acc.Samples), float64(d.funcCalls.Load()))
	} else {
		rep.fail("accuracy watcher is off")
	}

	twin, err := w.openConfig(fusedEngine(0, false, faultPlan))
	if err != nil {
		return fmt.Errorf("observer-off twin: %w", err)
	}
	defer twin.close()
	if err := warm(twin, w); err != nil {
		return fmt.Errorf("observer-off twin: %w", err)
	}
	off := closedLoop(twin, 1, w.warmup(), forever, len(base.calls), nil)
	if err := off.firstErr(); err != nil {
		rep.fail("observer-off twin: %v", err)
	}
	rep.metrics["observe.on_off_ratio"] = ratio(median(base.wallsUS(-1)), median(off.wallsUS(-1)))
	n := float64(len(base.calls))
	rep.metrics["observe.allocs_per_req_delta"] = ratio(float64(base.mallocs), n) - ratio(float64(off.mallocs), n)
	on, offLog := d.e.FaultEvents(), twin.e.FaultEvents()
	if len(on) == 0 {
		rep.fail("fault plan injected no faults")
	}
	if reflect.DeepEqual(on, offLog) {
		rep.note("fault log: %d events, identical with observers off", len(on))
	} else {
		rep.fail("fault log diverges: %d events with observers on, %d with them off", len(on), len(offLog))
	}
	return nil
}
