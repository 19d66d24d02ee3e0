package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
	"unsafe"
)

// Request kinds, for metrics split by what a call evaluated.
const (
	kindFunc = iota
	kindProgram
	kindRunner
)

// result is what serving one request produced, as the client saw it.
// start and end are the client span: they bracket the public call
// only, not the output check.
type result struct {
	start, end time.Time
	elems      int
	kind       int
	traceID    uint64        // RequestStats.TraceID; 0 when tracing is off
	latency    time.Duration // engine-reported RequestStats.Latency
	err        error         // the call failed or its output was wrong

	// Fused programs only: ProgramStats.FusedBytes and PerOpBytes.
	fusedBytes, perOpBytes int
}

func (r result) wall() time.Duration { return r.end.Sub(r.start) }

// server is a system under test: do serves request seq of client c,
// timing the public call, and checks its output against the golden.
type server interface {
	do(c, seq int) result
}

// phase is one measured stretch of a closed loop.
type phase struct {
	calls []result
	start time.Time
	wall  time.Duration

	allocBytes uint64 // runtime.MemStats.TotalAlloc delta
	mallocs    uint64 // runtime.MemStats.Mallocs delta
	gcPauseNs  uint64 // runtime.MemStats.PauseTotalNs delta

	depthMean float64 // mean of the sampled queue depth (0 without a sampler)
}

// closedLoop runs clients that each send their next request only when
// the previous one returned. Client c's k-th request in this phase is
// seq first+k. It stops after d, or once limit calls completed when
// limit > 0. depth, when non-nil, is sampled every 10 ms.
func closedLoop(s server, clients, first int, d time.Duration, limit int, depth func() int) phase {
	var (
		mu    sync.Mutex
		calls []result
		done  = make(chan struct{})
	)
	var depthSum, depthN float64
	var samplerWG sync.WaitGroup
	if depth != nil {
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					depthSum += float64(depth())
					depthN++
				}
			}
		}()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var taken int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := make([]result, 0, 1024)
			for k := first; ; k++ {
				if limit > 0 {
					mu.Lock()
					ok := taken < limit
					taken++
					mu.Unlock()
					if !ok {
						break
					}
				}
				if time.Now().After(deadline) {
					break
				}
				mine = append(mine, s.do(c, k))
			}
			mu.Lock()
			calls = append(calls, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p := phase{start: start, wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	close(done)
	samplerWG.Wait()

	sort.Slice(calls, func(i, j int) bool { return calls[i].start.Before(calls[j].start) })
	p.calls = calls
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	if depthN > 0 {
		p.depthMean = depthSum / depthN
	}
	return p
}

// windowed splits the phase into n equal windows, assigns each call to
// the window it ended in, and returns f of each window, sorted. Their
// median keeps a short disturbance of a shared machine from moving a
// result.
func (p phase) windowed(n int, f func(w phase) float64) []float64 {
	width := p.wall / time.Duration(n)
	wins := make([]phase, n)
	for i := range wins {
		wins[i] = phase{start: p.start.Add(time.Duration(i) * width), wall: width}
	}
	for _, c := range p.calls {
		i := int(c.end.Sub(p.start) / width)
		if i >= n {
			i = n - 1
		}
		wins[i].calls = append(wins[i].calls, c)
	}
	vals := make([]float64, n)
	for i, w := range wins {
		vals[i] = f(w)
	}
	sort.Float64s(vals)
	return vals
}

// throughput is the phase's served elements per second.
func (p phase) throughput() float64 { return float64(p.served()) / p.wall.Seconds() }

// served is the element count of the phase's successful calls.
func (p phase) served() int {
	n := 0
	for _, c := range p.calls {
		if c.err == nil {
			n += c.elems
		}
	}
	return n
}

func (p phase) failed() int {
	n := 0
	for _, c := range p.calls {
		if c.err != nil {
			n++
		}
	}
	return n
}

// firstErr is the first failure of the phase, for the report.
func (p phase) firstErr() error {
	for _, c := range p.calls {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// wallsUS returns the client-timed latencies in microseconds of the
// calls of the given kind (all kinds when kind < 0).
func (p phase) wallsUS(kind int) []float64 {
	var out []float64
	for _, c := range p.calls {
		if kind < 0 || c.kind == kind {
			out = append(out, float64(c.wall().Nanoseconds())/1e3)
		}
	}
	return out
}

// engineLatencyUS returns the engine-reported latencies in microseconds.
func (p phase) engineLatencyUS(kind int) []float64 {
	var out []float64
	for _, c := range p.calls {
		if c.err == nil && c.latency > 0 && (kind < 0 || c.kind == kind) {
			out = append(out, float64(c.latency.Nanoseconds())/1e3)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by the nearest-rank method
// (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sameBits reports whether two float32 slices are bit-for-bit equal.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	ab := unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), 4*len(a))
	bb := unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), 4*len(b))
	return bytes.Equal(ab, bb)
}

// checkBits returns an error naming the first element where got and
// want differ.
func checkBits(what string, got, want []float32) error {
	if sameBits(got, want) {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("%s: output %d is %v, golden %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// timedSetups builds the system reps times, timing each build, closes
// all but the last and returns it with the median build time.
func timedSetups[T any](reps int, build func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // start every build from the same heap state
		t0 := time.Now()
		s, err := build()
		dt := time.Since(t0).Seconds()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, dt)
		if i < reps-1 {
			closeFn(s)
		}
		last = s
	}
	return last, median(secs), nil
}
