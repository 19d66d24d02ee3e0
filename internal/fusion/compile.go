package fusion

import (
	"fmt"
	"sync"
	"sync/atomic"

	"transpimlib/internal/core"
	"transpimlib/internal/pimsim"
)

// progIDs mints unique program ids; the engine's program-plan cache
// keys on them.
var progIDs atomic.Uint64

// step is one device operation inside a phase, executed per element of
// a lane's chunk inside the fused kernel loop.
type step struct {
	node   int
	kind   nodeKind
	a, b   int // operand node ids (scalar operands deref'd past Broadcast)
	eop    core.ElemOp
	rop    core.ReduceOp
	fnIdx  int // nFunc: index into the compiled funcs list
	redIdx int // nReduce: index into the compiled reduces list
}

// phReduce is one reduction closing at a phase boundary.
type phReduce struct {
	node   int
	redIdx int
}

// phase is one fused kernel launch: every step runs per element in one
// streamed loop, external vector operands DMA in once, materialized
// outputs DMA out once, and the reductions it carries sync (gather →
// host combine → broadcast) at its end.
type phase struct {
	steps       []step
	extVecIn    []int      // vector operands streamed from MRAM
	scalarLoads []int      // runtime scalars read from the broadcast slot
	matOut      []int      // vector nodes materialized back to MRAM
	reduces     []phReduce // reductions closing at this phase's end
	bcastAfter  []int      // runtime scalars broadcast at this phase's sync
	// streamSig is the per-element streaming overhead of this phase's
	// loop: len(extVecIn) WRAM loads + len(matOut) WRAM stores + loop
	// control, recorded once at compile time.
	streamSig pimsim.CostSig
}

// Compiled is an executable fused program: the validated graph, its
// phase split, the primitive cost table, and the analytic byte model
// the engine's accounting is checked against. Compile once, evaluate
// many times; safe for concurrent read-only use (per-batch mutable
// state lives in Exec).
type Compiled struct {
	id    uint64
	name  string
	par   core.Params
	model pimsim.CostModel
	fop   *core.FusedOperator

	nodes      []node
	live       []bool
	numInputs  int
	numScalars int
	ret        int
	retScalar  bool

	phases  []phase
	funcs   []int // nFunc node ids, id order; index = step.fnIdx
	reduces []int // nReduce node ids, id order; index = step.redIdx
	bcastIn []int // runtime scalars broadcast at transfer-in

	// Scalar analysis: foldable scalars are compile-time immediates
	// (free); runtime scalars depend on ScalarInput or a reduction and
	// cost a 4-byte-per-lane broadcast when the cores read them.
	foldable    []bool
	foldVal     []float32
	scalarPhase []int // earliest phase a runtime scalar is device-usable

	perOpOnce  sync.Once
	perOpSteps []perOpStep
	perOpErr   error
}

// Compile validates the program and lowers it to phases. Every Func
// node evaluates under the same normalized method parameters; the cost
// model must match the engine the program will run on (signatures are
// recorded against it).
func Compile(p *Program, par core.Params, model pimsim.CostModel) (*Compiled, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.ret < 0 {
		return nil, fmt.Errorf("fusion: %s: program has no Return", p.name)
	}
	if p.numInputs == 0 {
		return nil, fmt.Errorf("fusion: %s: program has no vector input", p.name)
	}
	par = par.Normalized()

	c := &Compiled{
		id:         progIDs.Add(1),
		name:       p.name,
		par:        par,
		model:      model,
		fop:        core.NewFusedOperator(model),
		nodes:      append([]node(nil), p.nodes...),
		numInputs:  p.numInputs,
		numScalars: p.numScalars,
		ret:        p.ret,
		retScalar:  p.nodes[p.ret].scalar,
	}

	// Liveness: only nodes the return value depends on execute (and
	// charge). Inputs are always shipped — the caller provides them —
	// but dead compute nodes are dropped.
	c.live = make([]bool, len(c.nodes))
	var mark func(int)
	mark = func(v int) {
		if v < 0 || c.live[v] {
			return
		}
		c.live[v] = true
		mark(c.nodes[v].a)
		mark(c.nodes[v].b)
	}
	mark(c.ret)

	// Scalar constant folding and runtime classification.
	n := len(c.nodes)
	c.foldable = make([]bool, n)
	c.foldVal = make([]float32, n)
	for i, nd := range c.nodes {
		if !nd.scalar {
			continue
		}
		switch nd.kind {
		case nConst:
			c.foldable[i], c.foldVal[i] = true, nd.c
		case nBroadcast:
			c.foldable[i], c.foldVal[i] = c.foldable[nd.a], c.foldVal[nd.a]
		case nElem:
			if c.foldable[nd.a] && c.foldable[nd.b] {
				c.foldable[i] = true
				c.foldVal[i] = core.ElemApply(nd.eop, c.foldVal[nd.a], c.foldVal[nd.b])
			}
		}
	}

	// Phase assignment. Node ids are topological by construction, so a
	// single forward pass sees every operand's phase before its user's.
	// A vector node joins its newest vector operand's phase (same-phase
	// values flow through registers); a scalar produced by a reduction
	// in phase q is device-usable from phase q+1 (after the sync).
	ph := make([]int, n)
	c.scalarPhase = make([]int, n)
	for i := range ph {
		ph[i] = -1
	}
	deref := c.derefScalar
	maxPhase := -1
	for i, nd := range c.nodes {
		if !c.live[i] {
			continue
		}
		// Reductions are scalar-valued but execute on the device; every
		// other scalar node is host arithmetic and takes no phase.
		if nd.kind == nInput || (nd.scalar && nd.kind != nReduce) {
			if nd.scalar {
				c.scalarPhase[i] = c.scalarReady(i, ph)
			}
			continue
		}
		// Device vector node or reduction.
		p0 := 0
		for _, opnd := range [2]int{nd.a, nd.b} {
			if opnd < 0 {
				continue
			}
			od := &c.nodes[opnd]
			if od.scalar {
				if sp := c.scalarReady(deref(opnd), ph); sp > p0 {
					p0 = sp
				}
			} else if od.kind != nInput {
				if ph[opnd] > p0 {
					p0 = ph[opnd]
				}
			}
		}
		ph[i] = p0
		if nd.kind == nReduce {
			c.scalarPhase[i] = p0 + 1
		}
		if p0 > maxPhase {
			maxPhase = p0
		}
		switch nd.kind {
		case nFunc:
			if !par.Method.Supports(nd.fn) {
				return nil, fmt.Errorf("fusion: %s: %v does not support %v (see Table 2)",
					p.name, par.Method, nd.fn)
			}
			c.funcs = append(c.funcs, i)
		case nReduce:
			c.reduces = append(c.reduces, i)
		}
	}
	if maxPhase < 0 {
		return nil, fmt.Errorf("fusion: %s: program computes nothing on the device", p.name)
	}

	// Materialization: a computed vector crossing a phase boundary (or
	// returned) round-trips through MRAM; same-phase uses stay in
	// registers.
	mat := make([]bool, n)
	if !c.retScalar {
		mat[c.ret] = true
	}
	for i, nd := range c.nodes {
		if !c.live[i] || nd.scalar || nd.kind == nInput || nd.kind == nReduce {
			continue
		}
		for _, opnd := range [2]int{nd.a, nd.b} {
			if opnd < 0 {
				continue
			}
			od := &c.nodes[opnd]
			if !od.scalar && od.kind != nInput && ph[opnd] < ph[i] {
				mat[opnd] = true
			}
		}
	}
	for _, i := range c.reduces {
		opnd := c.nodes[i].a
		if c.nodes[opnd].kind != nInput && ph[opnd] < ph[i] {
			mat[opnd] = true
		}
	}

	// Assemble phases.
	c.phases = make([]phase, maxPhase+1)
	fnIdx := make(map[int]int, len(c.funcs))
	for k, v := range c.funcs {
		fnIdx[v] = k
	}
	redIdx := make(map[int]int, len(c.reduces))
	for k, v := range c.reduces {
		redIdx[v] = k
	}
	for i, nd := range c.nodes {
		if !c.live[i] || ph[i] < 0 {
			continue
		}
		q := &c.phases[ph[i]]
		st := step{node: i, kind: nd.kind, a: nd.a, b: nd.b, eop: nd.eop, rop: nd.rop}
		for _, opnd := range [2]int{nd.a, nd.b} {
			if opnd < 0 {
				continue
			}
			od := &c.nodes[opnd]
			switch {
			case od.scalar:
				s := deref(opnd)
				if opnd == nd.a {
					st.a = s
				} else {
					st.b = s
				}
				if !c.foldable[s] {
					q.scalarLoads = appendUnique(q.scalarLoads, s)
				}
			case od.kind == nInput || ph[opnd] < ph[i]:
				q.extVecIn = appendUnique(q.extVecIn, opnd)
			}
		}
		switch nd.kind {
		case nFunc:
			st.fnIdx = fnIdx[i]
		case nReduce:
			st.redIdx = redIdx[i]
			q.reduces = append(q.reduces, phReduce{node: i, redIdx: redIdx[i]})
		}
		if mat[i] {
			q.matOut = append(q.matOut, i)
		}
		q.steps = append(q.steps, st)
	}
	for qi := range c.phases {
		q := &c.phases[qi]
		q.streamSig = core.RecordStreamSig(model, len(q.extVecIn), len(q.matOut))
	}

	// Broadcast scheduling: every runtime scalar a device step reads
	// crosses host→PIM exactly once — at transfer-in when it is derived
	// purely from scalar inputs, or at the sync of the phase whose
	// reductions make it computable.
	seen := map[int]bool{}
	for qi := range c.phases {
		for _, s := range c.phases[qi].scalarLoads {
			if seen[s] {
				continue
			}
			seen[s] = true
			if rp := c.scalarPhase[s]; rp == 0 {
				c.bcastIn = append(c.bcastIn, s)
			} else {
				c.phases[rp-1].bcastAfter = append(c.phases[rp-1].bcastAfter, s)
			}
		}
	}
	return c, nil
}

// derefScalar follows Broadcast chains to the underlying scalar node.
func (c *Compiled) derefScalar(v int) int {
	for c.nodes[v].kind == nBroadcast {
		v = c.nodes[v].a
	}
	return v
}

// scalarReady returns the earliest phase a scalar's value exists on
// the host: 0 for constants and scalar inputs, reduce-phase+1 for
// reduction results, the max over operands for host scalar arithmetic.
func (c *Compiled) scalarReady(v int, ph []int) int {
	nd := &c.nodes[v]
	switch nd.kind {
	case nConst, nScalarInput:
		return 0
	case nReduce:
		return ph[v] + 1
	case nBroadcast:
		return c.scalarReady(nd.a, ph)
	case nElem:
		a := c.scalarReady(nd.a, ph)
		if b := c.scalarReady(nd.b, ph); b > a {
			a = b
		}
		return a
	}
	return 0
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// --- public inspection ---

// ID returns the program's unique id (the engine's plan-cache key).
func (c *Compiled) ID() uint64 { return c.id }

// Name returns the program's label.
func (c *Compiled) Name() string { return c.name }

// Params returns the normalized method parameters every Func node
// evaluates under.
func (c *Compiled) Params() core.Params { return c.par }

// NumInputs returns the number of vector inputs the program binds.
func (c *Compiled) NumInputs() int { return c.numInputs }

// NumScalars returns the number of runtime scalar inputs.
func (c *Compiled) NumScalars() int { return c.numScalars }

// ScalarResult reports whether the program returns a scalar (output
// length 1) instead of a vector.
func (c *Compiled) ScalarResult() bool { return c.retScalar }

// NumPhases returns the number of fused kernel launches per batch.
func (c *Compiled) NumPhases() int { return len(c.phases) }

// FuncNodes returns the transcendental function of every Func node, in
// the order the engine resolves operator tables for them.
func (c *Compiled) FuncNodes() []core.Function {
	out := make([]core.Function, len(c.funcs))
	for i, v := range c.funcs {
		out[i] = c.nodes[v].fn
	}
	return out
}

// CheckArgs validates an evaluation call's inputs against the
// program's signature and returns the element count.
func (c *Compiled) CheckArgs(inputs [][]float32, scalars []float32) (int, error) {
	if len(inputs) != c.numInputs {
		return 0, fmt.Errorf("fusion: %s: got %d vector inputs, want %d", c.name, len(inputs), c.numInputs)
	}
	if len(scalars) != c.numScalars {
		return 0, fmt.Errorf("fusion: %s: got %d scalar inputs, want %d", c.name, len(scalars), c.numScalars)
	}
	n := len(inputs[0])
	for i, in := range inputs {
		if len(in) != n {
			return 0, fmt.Errorf("fusion: %s: input %d has %d elements, want %d", c.name, i, len(in), n)
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("fusion: %s: empty input", c.name)
	}
	return n, nil
}

// --- analytic byte model ---
// These are the numbers the engine's metered transfers must reproduce
// exactly; the differential suite asserts measured == analytic.

func padded(n, k int) int {
	per := (n + k - 1) / k
	return per * 4 * k
}

// InBytes is the host→PIM bytes charged at transfer-in for an
// n-element batch over k lanes: every vector input rank-padded, plus a
// 4-byte-per-lane broadcast for each runtime scalar the cores read
// that is available before the first launch.
func (c *Compiled) InBytes(n, k int) int {
	return c.numInputs*padded(n, k) + 4*k*len(c.bcastIn)
}

// OutBytes is the PIM→host bytes charged at transfer-out: the padded
// result vector, or zero for a scalar result (its value left the cores
// in the final reduction gather).
func (c *Compiled) OutBytes(n, k int) int {
	if c.retScalar {
		return 0
	}
	return padded(n, k)
}

// SyncBytes totals the mid-program reduction traffic over k lanes:
// one 4-byte-per-lane gather per reduction plus one broadcast per
// runtime scalar that becomes device-visible at a sync.
func (c *Compiled) SyncBytes(k int) (gather, bcast int) {
	gather = 4 * k * len(c.reduces)
	for qi := range c.phases {
		bcast += 4 * k * len(c.phases[qi].bcastAfter)
	}
	return gather, bcast
}

// FusedBytes is the total host↔PIM bytes one fused evaluation moves.
func (c *Compiled) FusedBytes(n, k int) int {
	g, b := c.SyncBytes(k)
	return c.InBytes(n, k) + c.OutBytes(n, k) + g + b
}

// PerOpBytes is the total host↔PIM bytes the per-op baseline moves:
// every live device node pays its own round trip — each vector operand
// in (padded), each runtime scalar operand broadcast, the result
// vector out (or a reduction gather). Host scalar arithmetic is free
// in both paths.
func (c *Compiled) PerOpBytes(n, k int) int {
	P := padded(n, k)
	total := 0
	for i, nd := range c.nodes {
		if !c.live[i] {
			continue
		}
		switch {
		case nd.kind == nFunc:
			total += 2 * P
		case nd.kind == nElem && !nd.scalar:
			var vecs, scals []int
			for _, opnd := range [2]int{nd.a, nd.b} {
				od := &c.nodes[opnd]
				if od.scalar {
					if s := c.derefScalar(opnd); !c.foldable[s] {
						scals = appendUnique(scals, s)
					}
				} else {
					vecs = appendUnique(vecs, opnd)
				}
			}
			total += P*len(vecs) + 4*k*len(scals) + P
		case nd.kind == nReduce:
			total += P + 4*k
		}
	}
	return total
}

// SavedTransferSeconds converts the fused-vs-per-op byte difference to
// modeled transfer time under the system's rank-parallel bandwidths.
// The split between directions follows the byte model: inbound bytes
// ride the host→PIM bandwidth, outbound the PIM→host one.
func (c *Compiled) SavedTransferSeconds(n, k int, h2p, p2h float64) float64 {
	fin, fout := c.splitBytes(n, k, true)
	pin, pout := c.splitBytes(n, k, false)
	return float64(pin-fin)/h2p + float64(pout-fout)/p2h
}

// splitBytes returns the directional byte totals of the fused path or
// the per-op baseline.
func (c *Compiled) splitBytes(n, k int, fused bool) (in, out int) {
	P := padded(n, k)
	if fused {
		g, b := c.SyncBytes(k)
		return c.InBytes(n, k) + b, c.OutBytes(n, k) + g
	}
	for i, nd := range c.nodes {
		if !c.live[i] {
			continue
		}
		switch {
		case nd.kind == nFunc:
			in += P
			out += P
		case nd.kind == nElem && !nd.scalar:
			var vecs, scals []int
			for _, opnd := range [2]int{nd.a, nd.b} {
				od := &c.nodes[opnd]
				if od.scalar {
					if s := c.derefScalar(opnd); !c.foldable[s] {
						scals = appendUnique(scals, s)
					}
				} else {
					vecs = appendUnique(vecs, opnd)
				}
			}
			in += P*len(vecs) + 4*k*len(scals)
			out += P
		case nd.kind == nReduce:
			in += P
			out += 4 * k
		}
	}
	return in, out
}
