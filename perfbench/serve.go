package main

import (
	"fmt"
	"time"

	tp "transpimlib"
)

// serve-1k: two clients send 1,024-element requests through a
// 2-replica cluster of 4-DPU single-shard engines. Requests cycle
// through the tplload mix and 4 tenants; tables are prewarmed and
// every observer is off.
const (
	serveElems   = 1024
	servePool    = 16 // distinct payloads per spec, each with a golden
	serveTenants = 4
)

// serveJob is one (function, method) of the tplload mix.
type serveJob struct {
	fn   tp.Function
	spec tp.Config
}

type serve struct {
	seed    uint64
	jobs    []serveJob
	tenants []string
	pool    [][][]float32 // [job][i]
	golden  [][][]float32
}

func serveEngine(reference bool) tp.EngineConfig {
	return tp.EngineConfig{DPUs: 4, Shards: 1, Reference: reference}
}

func runServe(o options) (*report, error) {
	w := &serve{
		seed: uint64(o.seed),
		jobs: []serveJob{
			{tp.Sigmoid, tp.Config{Method: tp.LLUT, Interpolated: true, SizeLog2: 12}},
			{tp.GELU, tp.Config{Method: tp.DLLUT, Interpolated: true, SizeLog2: 12}},
			{tp.Exp, tp.Config{Method: tp.LLUTFixed, Interpolated: true, SizeLog2: 12}},
		},
	}
	for t := 0; t < serveTenants; t++ {
		w.tenants = append(w.tenants, fmt.Sprintf("tenant-%d", t))
	}
	ref, err := tp.NewEngine(serveEngine(true))
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	for j, jb := range w.jobs {
		var xss, yss [][]float32
		for i := 0; i < servePool; i++ {
			xs := domainInputs(jb.fn, serveElems, mix64(w.seed)+uint64(j*servePool+i))
			ys, _, err := ref.EvaluateBatch(jb.fn, jb.spec, xs)
			if err != nil {
				return nil, fmt.Errorf("golden: %w", err)
			}
			xss, yss = append(xss, xs), append(yss, ys)
		}
		w.pool, w.golden = append(w.pool, xss), append(w.golden, yss)
	}
	return runServing(o, w)
}

func (w *serve) clients() int { return 2 }
func (w *serve) warmup() int  { return 200 }

func (w *serve) open(traceDepth int) (deployment, error) {
	c, err := tp.NewCluster(tp.ClusterConfig{Replicas: 2, Engine: serveEngine(false), TraceDepth: traceDepth})
	if err != nil {
		return nil, err
	}
	for _, jb := range w.jobs {
		for _, t := range w.tenants {
			if err := c.Prewarm(jb.fn, jb.spec, t); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	return &clusterDeployment{c: c, w: w}, nil
}

func (w *serve) kernelFloor() (float64, float64, error) {
	var jobs []kernelJob
	for j, jb := range w.jobs {
		jobs = append(jobs, kernelJob{fn: jb.fn, spec: jb.spec, inputs: w.pool[j]})
	}
	ns, err := kernelFloor(jobs)
	return ns, serveElems, err
}

func (w *serve) check(deployment, *report) {}

func (w *serve) layers(deployment, phase, *report) error { return nil }

// clusterDeployment serves the serve-1k mix from a cluster.
type clusterDeployment struct {
	c *tp.Cluster
	w *serve
}

func (d *clusterDeployment) do(c, seq int) result {
	w := d.w
	k := seq*2 + c // the two clients interleave one request sequence
	j := k % len(w.jobs)
	i := int(mix64(w.seed^uint64(k)) % servePool)
	t0 := time.Now()
	ys, st, err := d.c.EvaluateBatchAs(w.tenants[k/len(w.jobs)%serveTenants], w.jobs[j].fn, w.jobs[j].spec, w.pool[j][i])
	r := result{start: t0, end: time.Now(), elems: serveElems, kind: kindFunc, traceID: st.TraceID, latency: st.Latency, err: err}
	if err == nil {
		r.err = checkBits(w.jobs[j].fn.String(), ys, w.golden[j][i])
	}
	return r
}

func (d *clusterDeployment) engineStats() tp.EngineStats { return sumStats(d.c.ReplicaStats()) }
func (d *clusterDeployment) queueDepth() int             { return d.engineStats().QueueDepth }
func (d *clusterDeployment) traces() []*tp.Trace         { return d.c.Traces() }
func (d *clusterDeployment) clusterStats() (tp.ClusterStats, bool) {
	return d.c.Stats(), true
}
func (d *clusterDeployment) close() { d.c.Close() }
