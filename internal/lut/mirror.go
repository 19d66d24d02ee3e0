package lut

import (
	"math"

	"transpimlib/internal/fixed"
	"transpimlib/internal/fpbits"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/rangered"
)

// Mirror methods are the unmetered host-side twins of the device Eval
// paths, used by the batch-evaluation fast path. Unlike the EvalHost
// reference implementations (which favor readable float64 math), a
// Mirror must replay the device's float32 operation order exactly so
// batch outputs are bit-identical to the interpreted path — including
// clamp-before/after ordering and out-of-range conversions.
//
// The MirrorMany forms are the hot loops of the engine's fused batch
// path. They hoist every loop-invariant (table slice, addressing
// constants, the ldexp exponent window) out of the per-element body
// and split each body into a straight-line fast class — in-range
// index, normal-exponent ldexp — with the rare inputs (NaN/Inf/
// subnormal, out-of-table, float64-floor boundary cases) routed to an
// out-of-line slow class that replays the scalar Mirror arithmetic
// verbatim. The fast classes use the uint(idx) < uint(hi) comparison
// form so the compiler proves the table accesses in bounds and drops
// the checks.

// Mirror mirrors DevMLUT.Eval bit-for-bit without metering.
func (d *DevMLUT) Mirror(x float32) float32 {
	tt := (x - d.p) * d.k
	if !d.t.Interp {
		idx := clampHost(pimsim.RoundToEven32(tt), len(d.t.Entries))
		return d.t.Entries[idx]
	}
	idx := pimsim.FloorToInt32(tt)
	delta := tt - float32(idx)
	idx = clampHost(idx, len(d.t.Entries)-1)
	l0 := d.t.Entries[idx]
	l1 := d.t.Entries[idx+1]
	return l0 + (l1-l0)*delta
}

// MirrorMany mirrors DevMLUT.Eval over a slice: the same arithmetic as
// Mirror with the table pointer and mapping constants hoisted out of
// the per-element loop and the in-range index handled by a checked,
// bounds-check-free fast class.
func (d *DevMLUT) MirrorMany(xs, ys []float32) {
	entries := d.t.Entries
	p, k := d.p, d.k
	ys = ys[:len(xs)]
	if !d.t.Interp {
		hi := len(entries)
		for i, x := range xs {
			idx := int(pimsim.RoundToEven32((x - p) * k))
			if uint(idx) < uint(hi) {
				ys[i] = entries[idx]
			} else {
				ys[i] = entries[clampHost(int32(idx), hi)]
			}
		}
		return
	}
	if len(entries) < 2 {
		return // interpolated tables always hold ≥ 2 entries + guard
	}
	hi := len(entries) - 1
	for i, x := range xs {
		tt := (x - p) * k
		// Truncation equals FloorToInt32 for non-negative in-range tt,
		// and the float32 fractional part is exact (Sterbenz); anything
		// else — negative, NaN, out of table — replays the scalar path.
		idx := int(tt)
		if tt >= 0 && uint(idx) < uint(hi) {
			delta := tt - float32(idx)
			l0 := entries[idx]
			l1 := entries[idx+1]
			ys[i] = l0 + (l1-l0)*delta
		} else {
			fi := pimsim.FloorToInt32(tt)
			delta := tt - float32(fi)
			ci := clampHost(fi, hi)
			l0 := entries[ci]
			l1 := entries[ci+1]
			ys[i] = l0 + (l1-l0)*delta
		}
	}
}

// ldexpSlow is the out-of-line fallback for the hand-inlined ldexp in
// MirrorMany: zero/subnormal/Inf/NaN inputs and over/underflowing
// results go through the full fpbits.Ldexp routine.
//
//go:noinline
func ldexpSlow(x float32, n int) float32 { return fpbits.Ldexp(x, n) }

// Mirror mirrors DevLLUT.Eval bit-for-bit without metering.
func (d *DevLLUT) Mirror(x float32) float32 {
	if !d.pZero {
		x = x - d.p
	}
	tt := fpbits.Ldexp(x, d.t.N)
	if !d.t.Interp {
		// truncIndex: floor through float64, exactly as the device does.
		idx := clampHost(int32(math.Floor(float64(tt))), len(d.t.Entries))
		return d.t.Entries[idx]
	}
	f := math.Floor(float64(tt))
	idx := int32(f)
	delta := float32(float64(tt) - f)
	idx = clampHost(idx, len(d.t.Entries)-1)
	l0 := d.t.Entries[idx]
	l1 := d.t.Entries[idx+1]
	return l0 + (l1-l0)*delta
}

// llutSlow replays the scalar Mirror tail (float64 floor, unclamped-
// floor delta, clamp) for an element that missed MirrorMany's fast
// class; interp selects the interpolated form.
//
//go:noinline
func llutSlow(entries []float32, tt float32, interp bool) float32 {
	if !interp {
		return entries[clampHost(int32(math.Floor(float64(tt))), len(entries))]
	}
	t64 := float64(tt)
	f := math.Floor(t64)
	idx := clampHost(int32(f), len(entries)-1)
	delta := float32(t64 - f)
	l0 := entries[idx]
	l1 := entries[idx+1]
	return l0 + (l1-l0)*delta
}

// MirrorMany mirrors DevLLUT.Eval over a slice. The per-element body
// is two checked fast classes: the ldexp collapses to one integer add
// when the (biased) exponent sits inside the precomputed LdexpWindow,
// and the float64 floor + clamp collapses to a float32 truncation when
// the scaled address is non-negative and in range. Elements outside
// either window take the out-of-line scalar-identical slow class.
func (d *DevLLUT) MirrorMany(xs, ys []float32) {
	entries := d.t.Entries
	n := d.t.N
	p, pZero := d.p, d.pZero
	eLo, eHi, ok := fpbits.LdexpWindow(n)
	if !ok {
		eLo, eHi = 0, -1 // empty window: uint32 span below never matches
	}
	span := uint32(eHi - eLo)
	add := uint32(n) << fpbits.MantBits
	ys = ys[:len(xs)]
	if !d.t.Interp {
		hi := len(entries)
		for i, x := range xs {
			if !pZero {
				x -= p
			}
			b := fpbits.Bits(x)
			var tt float32
			if uint32(int32(b>>fpbits.MantBits)&0xFF-eLo) <= span {
				tt = fpbits.FromBits(b + add)
			} else {
				tt = ldexpSlow(x, n)
			}
			// Truncation equals the float64 floor for non-negative
			// in-range tt (float32→float64 is exact).
			idx := int(tt)
			if tt >= 0 && uint(idx) < uint(hi) {
				ys[i] = entries[idx]
			} else {
				ys[i] = llutSlow(entries, tt, false)
			}
		}
		return
	}
	if len(entries) < 2 {
		return // interpolated tables always hold ≥ 2 entries + guard
	}
	// next[i] aliases entries[i+1]: indexing the pair through two
	// slices of the same length lets the compiler drop both checks.
	next := entries[1:]
	lo0 := entries[:len(next)]
	for i, x := range xs {
		if !pZero {
			x -= p
		}
		b := fpbits.Bits(x)
		var tt float32
		if uint32(int32(b>>fpbits.MantBits)&0xFF-eLo) <= span {
			tt = fpbits.FromBits(b + add)
		} else {
			tt = ldexpSlow(x, n)
		}
		idx := int(tt)
		if tt >= 0 && uint(idx) < uint(len(lo0)) {
			// The float32 subtraction is exact here (Sterbenz for
			// idx ≥ 1, trivial for idx = 0), so it equals the scalar
			// path's float64 tt − floor(tt) rounded to float32.
			delta := tt - float32(idx)
			l0 := lo0[idx]
			l1 := next[idx]
			ys[i] = l0 + (l1-l0)*delta
		} else {
			ys[i] = llutSlow(entries, tt, true)
		}
	}
}

// Mirror mirrors DevFixedLLUT.Eval (the fixed-point path) bit-for-bit
// without metering; FixedLLUT.EvalHost already replays the device
// integer arithmetic exactly.
func (d *DevFixedLLUT) Mirror(x fixed.Q3_28) fixed.Q3_28 { return d.t.EvalHost(x) }

// MirrorFloat mirrors DevFixedLLUT.EvalFloat bit-for-bit.
func (d *DevFixedLLUT) MirrorFloat(x float32) float32 {
	return d.t.EvalHost(fixed.FromFloat32(x)).Float32()
}

// MirrorMany mirrors DevFixedLLUT.Eval over Q3.28 slices: EvalHost
// with the table and addressing constants hoisted and the in-range
// index handled without bounds checks. The fixed-point arithmetic is
// integer-exact, so hoisting cannot change results.
func (d *DevFixedLLUT) MirrorMany(xs, ys []fixed.Q3_28) {
	t := d.t
	entries := t.Entries
	shift := uint(fixed.FracBits - t.N)
	p := t.P
	ys = ys[:len(xs)]
	if !t.Interp {
		hi := len(entries)
		for i, x := range xs {
			idx := int(int32(x-p) >> shift)
			if uint(idx) < uint(hi) {
				ys[i] = entries[idx]
			} else {
				ys[i] = entries[clampHost(int32(idx), hi)]
			}
		}
		return
	}
	if len(entries) < 2 {
		return // interpolated tables always hold ≥ 2 entries + guard
	}
	hi := len(entries) - 1
	mask := int32(1)<<shift - 1
	nbits := uint(t.N)
	for i, x := range xs {
		diff := x - p
		idx := int(int32(diff) >> shift)
		delta := fixed.Q3_28(int32(diff) & mask << nbits)
		var l0, l1 fixed.Q3_28
		if uint(idx) < uint(hi) {
			l0 = entries[idx]
			l1 = entries[idx+1]
		} else {
			ci := clampHost(int32(idx), hi)
			l0 = entries[ci]
			l1 = entries[ci+1]
		}
		ys[i] = l0.Add(l1.Sub(l0).Mul(delta))
	}
}

// MirrorFloatMany mirrors DevFixedLLUT.EvalFloat over float32 slices:
// the float↔Q3.28 conversions fused around the MirrorMany loop body.
func (d *DevFixedLLUT) MirrorFloatMany(xs, ys []float32) {
	t := d.t
	entries := t.Entries
	shift := uint(fixed.FracBits - t.N)
	p := t.P
	ys = ys[:len(xs)]
	if !t.Interp {
		hi := len(entries)
		for i, x := range xs {
			idx := int(int32(fixed.FromFloat32(x)-p) >> shift)
			if uint(idx) < uint(hi) {
				ys[i] = entries[idx].Float32()
			} else {
				ys[i] = entries[clampHost(int32(idx), hi)].Float32()
			}
		}
		return
	}
	if len(entries) < 2 {
		return // interpolated tables always hold ≥ 2 entries + guard
	}
	hi := len(entries) - 1
	mask := int32(1)<<shift - 1
	nbits := uint(t.N)
	for i, x := range xs {
		diff := fixed.FromFloat32(x) - p
		idx := int(int32(diff) >> shift)
		delta := fixed.Q3_28(int32(diff) & mask << nbits)
		var l0, l1 fixed.Q3_28
		if uint(idx) < uint(hi) {
			l0 = entries[idx]
			l1 = entries[idx+1]
		} else {
			ci := clampHost(int32(idx), hi)
			l0 = entries[ci]
			l1 = entries[ci+1]
		}
		ys[i] = l0.Add(l1.Sub(l0).Mul(delta)).Float32()
	}
}

// expFastLimit bounds MirrorExpMany's fast class: for |x·log2e| below
// it, adding and subtracting expMagic (1.5·2^23) rounds x·log2e to the
// nearest integer with ties to even — RoundToEven32's result — and
// yields float32(k) directly.
const (
	expFastLimit = 1 << 22
	expMagic     = 1.5 * (1 << 23)
)

// expReduce finishes SplitExpHost for t = x·log2e inside the fast
// class: the magic-number round, then the two-step Cody–Waite
// subtraction in the same float32 operation order.
func expReduce(x, t float32) (r float32, k int32) {
	kf := (t + expMagic) - expMagic
	r = x - kf*rangered.Ln2Hi
	r = r - kf*rangered.Ln2Lo
	return r, int32(kf)
}

// ldexpNormal is fpbits.Ldexp(v, k) for its common case — a normal v
// and a normal result — as one add on the exponent field; ok is false
// otherwise, and the caller falls back to ldexpSlow.
func ldexpNormal(v float32, k int32) (y float32, ok bool) {
	b := fpbits.Bits(v)
	e := int32(b>>fpbits.MantBits) & 0xFF
	if uint32(e-1) < fpbits.ExpMax-1 && uint32(e+k-1) < fpbits.ExpMax-1 {
		return fpbits.FromBits(b + uint32(k)<<fpbits.MantBits), true
	}
	return 0, false
}

// expSlow replays the scalar exp composition — SplitExpHost, the
// fixed-point core, JoinExpHost — for an element outside
// MirrorExpMany's fast class (|x·log2e| ≥ 2^22, or NaN).
//
//go:noinline
func (d *DevFixedLLUT) expSlow(x float32) float32 {
	r, k := rangered.SplitExpHost(x)
	return rangered.JoinExpHost(d.MirrorFloat(r), k)
}

// MirrorExpMany mirrors exp's device composition around this table —
// rangered.SplitExp, EvalFloat on the reduced argument, rangered.
// JoinExp — over a slice, in one pass: no intermediate lanes, the
// split's round-to-even a magic-number add, the Q3.28 conversions
// inline, and the join's ldexp an exponent-field add. Elements outside
// either fast window replay the scalar composition. Every element
// takes the same device control flow, so the cost accounting stays a
// single class.
func (d *DevFixedLLUT) MirrorExpMany(xs, ys []float32) {
	t := d.t
	entries := t.Entries
	// The shifts are < 32 (N ≤ 26); masking them says so to the
	// compiler, which then drops its oversized-shift fix-ups.
	shift := uint(fixed.FracBits-t.N) & 31
	p := t.P
	ys = ys[:len(xs)]
	if !t.Interp {
		hi := len(entries)
		for i, x := range xs {
			tl := x * rangered.Log2E
			if !(tl > -expFastLimit && tl < expFastLimit) {
				ys[i] = d.expSlow(x)
				continue
			}
			r, k := expReduce(x, tl)
			idx := int(int32(fixed.FromFloat32(r)-p) >> shift)
			var q fixed.Q3_28
			if uint(idx) < uint(hi) {
				q = entries[idx]
			} else {
				q = entries[clampHost(int32(idx), hi)]
			}
			v := q.Float32()
			y, ok := ldexpNormal(v, k)
			if !ok {
				y = ldexpSlow(v, int(k))
			}
			ys[i] = y
		}
		return
	}
	if len(entries) < 2 {
		return // interpolated tables always hold ≥ 2 entries + guard
	}
	// next[i] aliases entries[i+1], as in DevLLUT.MirrorMany.
	next := entries[1:]
	lo0 := entries[:len(next)]
	mask := int32(1)<<shift - 1
	nbits := uint(t.N) & 31
	for i, x := range xs {
		tl := x * rangered.Log2E
		if !(tl > -expFastLimit && tl < expFastLimit) {
			ys[i] = d.expSlow(x)
			continue
		}
		r, k := expReduce(x, tl)
		diff := fixed.FromFloat32(r) - p
		idx := int(int32(diff) >> shift)
		delta := fixed.Q3_28(int32(diff) & mask << nbits)
		var l0, l1 fixed.Q3_28
		if uint(idx) < uint(len(lo0)) {
			l0 = lo0[idx]
			l1 = next[idx]
		} else {
			ci := clampHost(int32(idx), len(lo0))
			l0 = entries[ci]
			l1 = entries[ci+1]
		}
		v := l0.Add(l1.Sub(l0).Mul(delta)).Float32()
		y, ok := ldexpNormal(v, k)
		if !ok {
			y = ldexpSlow(v, int(k))
		}
		ys[i] = y
	}
}

// Mirror mirrors DevDLUT.Eval bit-for-bit without metering;
// DLUT.EvalHost already replays the device bit extraction and float32
// interpolation exactly.
func (d *DevDLUT) Mirror(x float32) float32 { return d.t.EvalHost(x) }

// MirrorMany mirrors DevDLUT.Eval over a slice: the bit-pattern
// address extraction with all constants hoisted, sign routing to the
// per-sign table, and a bounds-check-free in-range class.
func (d *DevDLUT) MirrorMany(xs, ys []float32) {
	t := d.t
	shift := uint(23 - t.MantBits)
	sub := int32(uint32(t.MinExp+fpbits.ExpBias) << uint(t.MantBits))
	fracMask := uint32(1)<<shift - 1
	scale := float32(uint32(1) << shift)
	pos, neg := t.Pos, t.Neg
	ys = ys[:len(xs)]
	if !t.Interp {
		for i, x := range xs {
			bits := fpbits.Bits(x)
			entries := pos
			if bits&fpbits.SignMask != 0 {
				entries = neg
			}
			idx := int(int32((bits&^uint32(fpbits.SignMask))>>shift) - sub)
			if uint(idx) < uint(len(entries)) {
				ys[i] = entries[idx]
			} else {
				ys[i] = entries[clampHost(int32(idx), len(entries))]
			}
		}
		return
	}
	if len(pos) < 2 || len(neg) < 2 {
		return // interpolated tables always hold ≥ 2 entries + guard
	}
	for i, x := range xs {
		bits := fpbits.Bits(x)
		entries := pos
		if bits&fpbits.SignMask != 0 {
			entries = neg
		}
		idx := int(int32((bits&^uint32(fpbits.SignMask))>>shift) - sub)
		delta := float32(bits&fracMask) / scale
		hi := len(entries) - 1
		var l0, l1 float32
		if uint(idx) < uint(hi) {
			l0 = entries[idx]
			l1 = entries[idx+1]
		} else {
			ci := clampHost(int32(idx), hi)
			l0 = entries[ci]
			l1 = entries[ci+1]
		}
		ys[i] = l0 + (l1-l0)*delta
	}
}

// Mirror mirrors DevDLLUT.Eval bit-for-bit without metering and
// reports which component served the lookup (true for the L-LUT), the
// branch the batch cost accounting needs.
func (d *DevDLLUT) Mirror(x float32) (v float32, lPath bool) {
	ax := fpbits.FromBits(fpbits.Bits(x) &^ fpbits.SignMask)
	if ax < d.t.Split {
		return d.l.Mirror(x), true
	}
	return d.d.Mirror(x), false
}

// MirrorMany mirrors DevDLLUT.Eval over a slice: one classification
// pass routes each element to the L-LUT (|x| below the split) or the
// D-LUT, the two gathered sub-batches run through their components'
// fused kernels, and a scatter pass restores input order. Returns the
// number of L-LUT-served elements — the class-0 count the batch cost
// accounting charges. NaN inputs route to the D-LUT, exactly as the
// scalar Mirror's ax < Split comparison does.
func (d *DevDLLUT) MirrorMany(xs, ys []float32, sc *Scratch) int {
	n := len(xs)
	sc.Grow(n)
	split := d.t.Split
	cls := sc.Cls[:n]
	xa := sc.XA[:0]
	xb := sc.XB[:0]
	for i, x := range xs {
		ax := fpbits.FromBits(fpbits.Bits(x) &^ uint32(fpbits.SignMask))
		if ax < split {
			cls[i] = 0
			xa = append(xa, x)
		} else {
			cls[i] = 1
			xb = append(xb, x)
		}
	}
	ya := sc.YA[:len(xa)]
	yb := sc.YB[:len(xb)]
	d.l.MirrorMany(xa, ya)
	d.d.MirrorMany(xb, yb)
	ys = ys[:n]
	j, k := 0, 0
	for i, c := range cls {
		if c == 0 {
			ys[i] = ya[j]
			j++
		} else {
			ys[i] = yb[k]
			k++
		}
	}
	return len(xa)
}
