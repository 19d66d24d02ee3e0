package pimsim

import "testing"

// TestLaunchAllocs pins the allocation-free launch: each core's one Ctx
// (with its DMA scratch) and the shard's launch record are reused, so a
// clean LaunchShardSeq allocates nothing even with a fault agent and
// cycle attribution installed. Only a failed launch allocates, for its
// *LaunchError.
func TestLaunchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	sys := NewSystem(Config{DPUs: 4})
	sys.SetCycleAttribution(true)
	sys.SetFaultAgent(scriptedAgent{slowLanes: map[int]float64{2: 3}})
	ids := []int{0, 1, 2, 3}
	var ctxs [4]*Ctx
	kernel := func(ctx *Ctx, id int) error {
		ctxs[id] = ctx
		ctx.MramRead(0, 0, 256) // exercises the Ctx's DMA scratch
		return burnKernel(ctx, id)
	}
	for _, d := range sys.DPUs() {
		d.MRAM.MustAlloc(256)
	}
	if err := sys.LaunchShardSeq(1, 0, ids, kernel); err != nil {
		t.Fatal(err)
	}
	first := ctxs
	seq := uint64(1)
	if avg := testing.AllocsPerRun(200, func() {
		seq++
		if err := sys.LaunchShardSeq(seq, 0, ids, kernel); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("clean launch allocates %.1f objects, want 0", avg)
	}
	if ctxs != first {
		t.Fatal("a core's kernel saw a different Ctx on a later launch")
	}

	sys.SetFaultAgent(scriptedAgent{failLanes: map[int]bool{1: true}})
	if avg := testing.AllocsPerRun(50, func() {
		if err := sys.LaunchShardSeq(seq, 0, ids, kernel); err == nil {
			t.Fatal("failed lane did not fail the launch")
		}
	}); avg == 0 {
		t.Fatal("failed launch allocated no *LaunchError")
	}
}
