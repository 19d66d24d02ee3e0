package engine_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"transpimlib/internal/core"
	"transpimlib/internal/engine"
	"transpimlib/internal/faultsim"
	"transpimlib/internal/fusion"
	"transpimlib/internal/stats"
	"transpimlib/internal/workloads"
)

// fusedChaosPlan is the fused-chaos benchmark's fault plan.
const fusedChaosPlan = "seed=7,dpufail=0.05,dpuslow=0.1x4,bitflip=0.01,transfer=0.02"

// faultLogRun is what one pass of the mixed workload leaves behind.
type faultLogRun struct {
	outs   [][]float32
	stats  engine.Stats
	events []faultsim.Event
}

// runFaultLogWorkload feeds one single-shard engine, sequentially, the
// three fused workloads alternating with tanh requests, at two batch
// shapes so compiled plans are both built and reused.
func runFaultLogWorkload(t *testing.T, cfg engine.Config) faultLogRun {
	t.Helper()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var progs []*fusion.Compiled
	for _, cs := range workloads.FusedCases() {
		c, err := e.CompileProgram(cs.Build(), workloads.FusedParams())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, c)
	}
	var run faultLogRun
	for round := 0; round < 200; round++ {
		n := []int{1000, 1536}[round%2]
		for i, cs := range workloads.FusedCases() {
			inputs, scalars := cs.Gen(n)
			out, _, err := e.EvaluateProgram(progs[i], inputs, scalars)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, cs.Name, err)
			}
			run.outs = append(run.outs, out)
			xs := stats.RandomInputs(-7.5, 7.5, n/2, uint64(1+3*round+i))
			ys, _, err := e.EvaluateBatch(core.Tanh, workloads.FusedParams(), xs)
			if err != nil {
				t.Fatalf("round %d tanh: %v", round, err)
			}
			run.outs = append(run.outs, ys)
		}
	}
	run.stats = e.Stats()
	run.events = e.FaultEvents()
	return run
}

// faultLogGolden is one reliability setting's recorded outcome.
type faultLogGolden struct {
	name   string
	rel    engine.ReliabilityConfig
	counts map[string]int
	hash   uint64
	// Ladder counters and modeled totals, in ladderStats order.
	ladder [9]uint64
}

func ladderStats(st engine.Stats) [9]uint64 {
	return [9]uint64{
		st.LaunchRetries, st.TransferRetries, st.Remaps, st.Hedges,
		st.DegradedBatches, st.TableRepairs, st.KernelCycles, st.BytesIn, st.BytesOut,
	}
}

// TestFaultLogAcrossBatchKinds pins the recovery ladder's behavior on
// program and function batches under random faults: outputs equal a
// clean engine's bit for bit, and the canonical fault log — per-class
// counts and an FNV-1a hash over every event — plus the ladder's
// counters (launch retries, transfer retries, remaps, hedges, degraded
// batches, table repairs) and the modeled kernel cycles and metered
// bytes match constants recorded before the compute bodies were merged
// into one executor.
func TestFaultLogAcrossBatchKinds(t *testing.T) {
	plan, err := faultsim.ParsePlan(fusedChaosPlan)
	if err != nil {
		t.Fatal(err)
	}
	clean := runFaultLogWorkload(t, engine.Config{DPUs: 4, Shards: 1})
	goldens := []faultLogGolden{
		{
			name:   "default",
			counts: map[string]int{"dpu_fail": 447, "dpu_slow": 866, "bit_flip": 0, "transfer_in": 19, "transfer_out": 23},
			hash:   0x2c12c9fc8e2ea7e5,
			ladder: [9]uint64{411, 42, 8, 0, 0, 0, 408202155, 7620800, 4574420},
		},
		{
			name:   "hedge",
			rel:    engine.ReliabilityConfig{HedgeRatio: 2},
			counts: map[string]int{"dpu_fail": 457, "dpu_slow": 888, "bit_flip": 0, "transfer_in": 19, "transfer_out": 23},
			hash:   0x6510ca49cba602f0,
			ladder: [9]uint64{411, 42, 8, 214, 0, 0, 384943522, 7620800, 4574420},
		},
	}
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			chaos := runFaultLogWorkload(t, engine.Config{DPUs: 4, Shards: 1, Faults: &plan, Reliability: g.rel})
			for i := range clean.outs {
				want, got := clean.outs[i], chaos.outs[i]
				if len(got) != len(want) {
					t.Fatalf("request %d: %d outputs, want %d", i, len(got), len(want))
				}
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("request %d output %d: %v under faults, %v clean", i, j, got[j], want[j])
					}
				}
			}

			counts := map[string]int{}
			h := fnv.New64a()
			for _, ev := range chaos.events {
				counts[ev.Class]++
				fmt.Fprintf(h, "%s|%d|%d|%d|%s\n", ev.Class, ev.Seq, ev.Lane, ev.Attempt, ev.Detail)
			}
			for class, want := range g.counts {
				if counts[class] != want {
					t.Errorf("%s events = %d, want %d", class, counts[class], want)
				}
			}
			if got := h.Sum64(); got != g.hash {
				t.Errorf("fault log hash = %#x, want %#x", got, g.hash)
			}
			names := [9]string{"LaunchRetries", "TransferRetries", "Remaps", "Hedges",
				"DegradedBatches", "TableRepairs", "KernelCycles", "BytesIn", "BytesOut"}
			got := ladderStats(chaos.stats)
			for i := range got {
				if got[i] != g.ladder[i] {
					t.Errorf("%s = %d, want %d", names[i], got[i], g.ladder[i])
				}
			}
		})
	}
}
