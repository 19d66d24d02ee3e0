package pimsim

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The simulated memories are little-endian byte arrays (matching the
// UPMEM DPU). On a little-endian host a []float32 therefore has the
// exact byte layout of its simulated image, and the bulk float32
// store can copy through an unsafe byte view instead of encoding one
// element at a time. The probe runs once; big-endian hosts fall
// back to the portable per-element path.
var hostLittleEndian = func() bool {
	var probe uint32 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

func f32Bytes(vs []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), 4*len(vs))
}

// WriteFloat32s bulk-stores a float32 slice starting at addr,
// bypassing per-element encoding on little-endian hosts.
func (m *Mem) WriteFloat32s(addr int, vs []float32) {
	if len(vs) == 0 {
		return
	}
	m.ensure(addr + 4*len(vs))
	dst := m.data[addr : addr+4*len(vs)]
	if hostLittleEndian {
		copy(dst, f32Bytes(vs))
		return
	}
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}
