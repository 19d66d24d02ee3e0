package engine

import (
	"sync"

	"transpimlib/internal/fusion"
)

// planKey identifies one compiled batch plan: a program served by a
// specific shard at an exact batch size. A function batch keys on its
// spec, a fused-program batch on its program id. Production traffic
// repeats a small set of shapes (the batcher emits MaxBatch-sized
// batches in steady state), so keying on the exact size keeps the plan
// a pure lookup with no per-batch arithmetic.
type planKey struct {
	spec  Spec
	pid   uint64
	shard int
	n     int
}

// batchPlan is the compiled execution recipe for a recurring shape:
// the program's Exec with every Func node's tables resolved for the
// shard, and the padded lane layout. single marks a function batch's
// one-node program, the kind that climbs the whole recovery ladder. gen
// pins the table-cache generation the plan was compiled against; a
// table hot-swap bumps the generation and lazily invalidates every
// outstanding plan on its next lookup. An Exec holds per-batch bound
// state, but a shard's goroutine runs one batch at a time and plans
// are keyed by shard, so a plan never serves two batches concurrently.
type batchPlan struct {
	ex     *fusion.Exec
	single bool
	perDPU int // elements per lane (shard planning, precomputed)
	gen    uint64
}

// defaultPlanCacheLimit bounds the compiled-plan store. Each plan is an
// Exec sized to its batch, so the bound exists to cap pathological
// workloads (every batch a unique size); FIFO eviction is deliberate —
// a plan is cheap to recompile and the steady state reuses a handful
// of shapes.
const defaultPlanCacheLimit = 256

// planCache is the bounded compiled-plan store. Unlike the table cache
// (which tracks physical PIM residency and never evicts), plans are
// pure host-side artifacts: eviction only costs a recompile on the
// next matching batch.
type planCache struct {
	mu      sync.Mutex
	entries map[planKey]*batchPlan
	fifo    []planKey // insertion order; may hold stale keys
	limit   int
}

func newPlanCache(limit int) *planCache {
	if limit <= 0 {
		limit = defaultPlanCacheLimit
	}
	return &planCache{entries: make(map[planKey]*batchPlan), limit: limit}
}

// lookup returns the plan for the key when present and still valid
// against the table-cache generation gen; stale plans (compiled before
// a hot-swap) are dropped and reported as a miss.
func (c *planCache) lookup(k planKey, gen uint64) *batchPlan {
	c.mu.Lock()
	p := c.entries[k]
	if p != nil && p.gen != gen {
		delete(c.entries, k)
		p = nil
	}
	c.mu.Unlock()
	return p
}

// store records a freshly compiled plan, evicting oldest entries past
// the bound. It returns the number of live plans evicted (stale fifo
// keys whose entries were already dropped don't count).
func (c *planCache) store(k planKey, p *batchPlan) (evicted int) {
	c.mu.Lock()
	if _, ok := c.entries[k]; !ok {
		for len(c.entries) >= c.limit && len(c.fifo) > 0 {
			old := c.fifo[0]
			c.fifo = c.fifo[1:]
			if _, live := c.entries[old]; live {
				delete(c.entries, old)
				evicted++
			}
		}
		c.fifo = append(c.fifo, k)
	}
	c.entries[k] = p
	c.mu.Unlock()
	return evicted
}

// size returns the number of live compiled plans.
func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// programs returns the number of live fused-program plans.
func (c *planCache) programs() (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.entries {
		if k.pid != 0 {
			n++
		}
	}
	return n
}

// resolvePlan returns batch b's compiled plan on shard s: a cache hit
// when the shape was compiled against the current table generation,
// else a fresh compile — of the spec's one-node program for a function
// batch — that ensures every Func node's tables are resident, charging
// the batch's setup on a table miss.
func (e *Engine) resolvePlan(s *shard, b *batch) (*batchPlan, error) {
	gen := e.cache.generation()
	key := planKey{spec: b.spec, shard: s.id, n: b.n}
	c := b.prog
	if c != nil {
		key = planKey{pid: c.ID(), shard: s.id, n: b.n}
	}
	if p := e.plans.lookup(key, gen); p != nil {
		// A hit proves the tables were resident when the plan was
		// compiled and the generation hasn't moved since: no table-cache
		// lock, no shard planning, no setup charge.
		e.met.planHits.Inc()
		b.hit = true
		return p, nil
	}
	e.met.planMisses.Inc()
	if c == nil {
		var err error
		if c, err = e.fnProgram(b.spec); err != nil {
			return nil, err
		}
	}
	ex := c.NewExec(len(s.dpus))
	hit, setup := true, 0.0
	for i, fn := range c.FuncNodes() {
		ops, h, su, err := e.cache.ensure(Spec{Fn: fn, Par: c.Params()}, s)
		e.met.cachedSpecs.Set(int64(e.cache.size()))
		if err != nil {
			return nil, err
		}
		hit = hit && h
		setup += su
		ex.SetOps(i, ops)
	}
	b.hit, b.setup = hit, setup
	// The generation was read before ensure: a hot-swap racing the
	// build leaves the plan stale, and the next lookup recompiles it.
	per, _ := shardPlan(b.n, len(s.dpus))
	p := &batchPlan{ex: ex, single: b.prog == nil, perDPU: per, gen: gen}
	if evicted := e.plans.store(key, p); evicted > 0 {
		e.met.planEvictions.Add(uint64(evicted))
	}
	return p, nil
}

// fnProgram returns spec's one-node program, Return(Func(fn,
// Input())), compiled once: the form every function batch runs in. Its
// charges are the streamed kernel's — input DMA, the operator's
// per-element cost, the per-element streaming overhead, output DMA.
func (e *Engine) fnProgram(spec Spec) (*fusion.Compiled, error) {
	e.fnMu.Lock()
	defer e.fnMu.Unlock()
	if c, ok := e.fnProgs[spec]; ok {
		return c, nil
	}
	p := fusion.NewProgram(spec.Fn.String())
	p.Return(p.Func(spec.Fn, p.Input()))
	c, err := fusion.Compile(p, spec.Par, e.cfg.Cost)
	if err == nil {
		e.fnProgs[spec] = c
	}
	return c, err
}
