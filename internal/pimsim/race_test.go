package pimsim

import (
	"sync"
	"testing"
)

// TestConcurrentShardLaunches is the -race regression test for the
// System ownership discipline: several goroutines each own a disjoint
// shard of the same System and concurrently (1) write inputs into
// pre-touched MRAM buffers, (2) charge host→PIM transfer time, (3)
// launch a kernel on their shard, (4) charge PIM→host transfer time,
// and (5) read back results and their own cores' cycle counters —
// exactly the stage structure of internal/engine. Run with -race.
func TestConcurrentShardLaunches(t *testing.T) {
	const (
		shards   = 4
		perShard = 2
		elems    = 64
		rounds   = 25
	)
	sys := NewSystem(Config{DPUs: shards * perShard})

	// Per-DPU input/output buffers, pre-touched so Mem growth happens
	// before any concurrency (the documented discipline).
	inAddr := make([]int, sys.NumDPUs())
	outAddr := make([]int, sys.NumDPUs())
	zero := make([]byte, elems*4)
	for i, d := range sys.DPUs() {
		inAddr[i] = d.MRAM.MustAlloc(elems * 4)
		outAddr[i] = d.MRAM.MustAlloc(elems * 4)
		d.MRAM.Write(inAddr[i], zero)
		d.MRAM.Write(outAddr[i], zero)
	}

	var wg sync.WaitGroup
	errc := make(chan error, shards)
	for s := 0; s < shards; s++ {
		ids := make([]int, perShard)
		for k := range ids {
			ids[k] = s*perShard + k
		}
		wg.Add(1)
		go func(shard int, ids []int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, id := range ids {
					m := sys.DPU(id).MRAM
					for j := 0; j < elems; j++ {
						m.PutFloat32(inAddr[id]+4*j, float32(shard+j)+0.5)
					}
				}
				sys.ChargeHostToPIM(perShard*elems*4, true)
				err := sys.LaunchShard(ids, func(ctx *Ctx, id int) error {
					m := ctx.DPU().MRAM
					ctx.ChargeDMA(elems * 4)
					for j := 0; j < elems; j++ {
						x := ctx.LoadStreamedF32(m, inAddr[id]+4*j)
						y := ctx.FAdd(ctx.FMul(x, 2), 1)
						ctx.StoreStreamedF32(m, outAddr[id]+4*j, y)
					}
					ctx.ChargeDMA(elems * 4)
					return nil
				})
				if err != nil {
					errc <- err
					return
				}
				sys.ChargePIMToHost(perShard*elems*4, true)
				for _, id := range ids {
					d := sys.DPU(id)
					if d.Cycles() == 0 {
						t.Errorf("shard %d: dpu %d charged no cycles", shard, id)
					}
					got := d.MRAM.Float32(outAddr[id])
					want := float32(shard) + 0.5
					want = want*2 + 1
					if got != want {
						t.Errorf("shard %d dpu %d: got %v, want %v", shard, id, got, want)
					}
				}
				_ = sys.TransferSeconds() // shared clock read under load
			}
		}(s, ids)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if sys.TransferSeconds() <= 0 {
		t.Fatal("no transfer time accumulated")
	}
}
