package main

import (
	"fmt"
	"time"

	tp "transpimlib"
	"transpimlib/internal/stats"
)

// kernelBudget is how long the kernel floor times each spec.
const kernelBudget = 300 * time.Millisecond

// kernelJob is one spec of a workload's request mix with its inputs.
type kernelJob struct {
	fn     tp.Function
	spec   tp.Config
	inputs [][]float32
}

// kernelFloor times Lib.EvalSlice — the SoA mirror kernels behind
// Operator.EvalBatch — on each job's own spec and inputs, on one
// goroutine after a warm pass. It returns the mean over jobs of each
// job's median ns per element across passes.
func kernelFloor(jobs []kernelJob) (float64, error) {
	var sum float64
	for _, j := range jobs {
		lib, err := tp.New(j.spec, j.fn)
		if err != nil {
			return 0, err
		}
		out := make([]float32, len(j.inputs[0]))
		for _, xs := range j.inputs { // warm pass
			lib.EvalSlice(j.fn, xs, out[:len(xs)])
		}
		var perElem []float64
		deadline := time.Now().Add(kernelBudget)
		for len(perElem) < 3 || time.Now().Before(deadline) {
			for _, xs := range j.inputs {
				t0 := time.Now()
				lib.EvalSlice(j.fn, xs, out[:len(xs)])
				perElem = append(perElem, float64(time.Since(t0).Nanoseconds())/float64(len(xs)))
			}
		}
		sum += median(perElem)
	}
	if len(jobs) == 0 {
		return 0, fmt.Errorf("no kernel jobs")
	}
	return sum / float64(len(jobs)), nil
}

// domainInputs draws n inputs uniformly from fn's Domain().
func domainInputs(fn tp.Function, n int, seed uint64) []float32 {
	lo, hi := fn.Domain()
	return stats.RandomInputs(lo, hi, n, seed)
}

// mix64 is a splitmix64 step: a seeded, well-spread index source for
// picking which pooled input a request sends.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
