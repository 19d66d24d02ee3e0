package pimsim

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestTypedF32RoundTrip cross-checks the bulk float32 store against the
// scalar Float32 path and the raw little-endian image, including
// negative zero and NaN payloads, which must survive bit-exactly. Both
// byte-order paths run: the host's native one and the portable
// per-element encoding big-endian hosts take.
func TestTypedF32RoundTrip(t *testing.T) {
	vs := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), // NaN with payload
		3.1415927, -2.7182817,
	}
	native := hostLittleEndian
	defer func() { hostLittleEndian = native }()
	for _, c := range []struct {
		name string
		le   bool
	}{{"native", native}, {"portable", false}} {
		hostLittleEndian = c.le
		m := NewMem("test", 4096, 4)
		m.WriteFloat32s(64, vs)
		raw := make([]byte, 4*len(vs))
		m.Read(64, raw)
		for i, want := range vs {
			if got := m.Float32(64 + 4*i); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s: scalar read %d: %v (%#x) != %v (%#x)", c.name, i, got, math.Float32bits(got), want, math.Float32bits(want))
			}
			if got := binary.LittleEndian.Uint32(raw[4*i:]); got != math.Float32bits(want) {
				t.Fatalf("%s: image word %d: %#x != %#x", c.name, i, got, math.Float32bits(want))
			}
		}
		// Empty slices are no-ops, not panics.
		m.WriteFloat32s(0, nil)
	}
}

// TestMemResetTruncates pins the Reset contract: contents up to the
// allocator high-water mark are zeroed, the backing store is truncated
// to it, and bytes raw-written beyond it (never allocated) read back
// as zero after the next growth.
func TestMemResetTruncates(t *testing.T) {
	m := NewMem("test", 1<<20, 8)
	m.MustAlloc(16)
	m.PutUint32(0, 0xdeadbeef)
	// Raw write far beyond the high-water mark grows the backing store.
	m.PutUint32(1<<16, 0xcafebabe)
	m.Reset()
	if m.Used() != 0 {
		t.Fatalf("Used after Reset = %d", m.Used())
	}
	if got := m.Uint32(0); got != 0 {
		t.Fatalf("allocated region not zeroed: %#x", got)
	}
	// The region beyond brk was dropped by truncation; the re-grown
	// backing store must read zero there too.
	if got := m.Uint32(1 << 16); got != 0 {
		t.Fatalf("beyond-brk region survived Reset: %#x", got)
	}
}
