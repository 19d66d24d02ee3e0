package main

import (
	"fmt"
	"time"

	tp "transpimlib"
)

// stream-256k: one client sends 262,144-element sigmoid L-LUT(i)
// 12-bit requests to a 4-DPU single-shard engine with 64K batches, so
// each request rides 4 pipelined batches.
const (
	streamElems = 262144
	streamPool  = 8 // distinct request payloads, each with a golden
)

type stream struct {
	seed   uint64
	spec   tp.Config
	pool   [][]float32
	golden [][]float32
}

func streamEngine(traceDepth int, reference bool) tp.EngineConfig {
	return tp.EngineConfig{DPUs: 4, Shards: 1, MaxBatch: 65536, TraceDepth: traceDepth, Reference: reference}
}

func runStream(o options) (*report, error) {
	w := &stream{
		seed: uint64(o.seed),
		spec: tp.Config{Method: tp.LLUT, Interpolated: true, SizeLog2: 12},
	}
	ref, err := tp.NewEngine(streamEngine(0, true))
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	for i := 0; i < streamPool; i++ {
		xs := domainInputs(tp.Sigmoid, streamElems, mix64(w.seed)+uint64(i))
		ys, _, err := ref.EvaluateBatch(tp.Sigmoid, w.spec, xs)
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		w.pool = append(w.pool, xs)
		w.golden = append(w.golden, ys)
	}
	return runServing(o, w)
}

func (w *stream) clients() int { return 1 }
func (w *stream) warmup() int  { return 8 }

func (w *stream) open(traceDepth int) (deployment, error) {
	e, err := tp.NewEngine(streamEngine(traceDepth, false))
	if err != nil {
		return nil, err
	}
	// Table build and plan compile: the engine is ready to serve.
	if _, _, err := e.EvaluateBatch(tp.Sigmoid, w.spec, w.pool[0][:64]); err != nil {
		e.Close()
		return nil, err
	}
	return &engineDeployment{e: e, serve: w.serve}, nil
}

func (w *stream) serve(e *tp.Engine, c, seq int) result {
	i := int(mix64(w.seed^uint64(seq)) % streamPool)
	t0 := time.Now()
	ys, st, err := e.EvaluateBatch(tp.Sigmoid, w.spec, w.pool[i])
	r := result{start: t0, end: time.Now(), elems: streamElems, kind: kindFunc, traceID: st.TraceID, latency: st.Latency, err: err}
	if err == nil {
		r.err = checkBits("sigmoid", ys, w.golden[i])
	}
	return r
}

func (w *stream) kernelFloor() (float64, float64, error) {
	ns, err := kernelFloor([]kernelJob{{fn: tp.Sigmoid, spec: w.spec, inputs: w.pool[:2]}})
	return ns, streamElems, err
}

func (w *stream) check(deployment, *report) {}

func (w *stream) layers(deployment, phase, *report) error { return nil }
