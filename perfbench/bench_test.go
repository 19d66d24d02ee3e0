package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	tp "transpimlib"
)

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// lists exactly this package's workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	ws := workloadList()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d is %+v, want %s: %s", i, got, w.Name, w.Why)
		}
	}
	for _, c := range []struct {
		what string
		got  []entry
		want []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s has %d metrics, want %d", c.what, len(c.got), len(c.want))
		}
		for i, m := range c.want {
			g := c.got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
				t.Errorf("%s[%d] is %+v, want %+v", c.what, i, g, m)
			}
		}
	}
}

// crossed lists, per workload, the per-layer metrics that must be
// nonzero: the layers the workload crosses. Counts that may be zero
// in a short run (queue depth, GC pauses, rare recovery rungs) are
// left out.
var crossed = func() map[string][]string {
	serving := []string{
		"core.evalbatch_ns_per_elem", "engine.overhead_ratio", "engine.latency_p50_us",
		"engine.span.queue_us", "engine.span.transfer_in_us", "engine.span.setup_us",
		"engine.span.kernel_us", "engine.span.transfer_out_us", "engine.span.handoff_us",
		"engine.span.deliver_us", "engine.requests_per_batch", "engine.batches_per_request",
		"engine.cache_hit_ratio", "engine.allocs_per_req", "engine.func_p50_us",
		"pimsim.kernel_cycles_per_elem", "pimsim.bytes_in_per_elem", "pimsim.bytes_out_per_elem",
		"pimsim.transfer_share", "pimsim.sim_mcycles_per_s", "trace.overhead_ratio",
	}
	with := func(extra ...string) []string { return append(append([]string{}, serving...), extra...) }
	return map[string][]string{
		"stream-256k": with("engine.plan_hit_ratio"),
		"serve-1k":    with("engine.plan_hit_ratio", "cluster.route_us", "cluster.imbalance"),
		"fused-chaos": with("fusion.bytes_per_elem", "fusion.saved_bytes_ratio", "fusion.program_p50_us",
			"reliability.faults_per_batch", "reliability.retries_per_batch",
			"observe.on_off_ratio", "observe.allocs_per_req_delta", "accwatch.samples_per_req"),
		"paper-fig9": {"pimsim.kernel_cycles_per_elem", "pimsim.transfer_share",
			"pimsim.sim_mcycles_per_s", "trace.overhead_ratio"},
	}
}()

// TestWorkloadsBrief runs every workload briefly, untraced and traced:
// every check passes, every metric is reported, every end-to-end
// metric is positive and every crossed layer reports a nonzero value.
func TestWorkloadsBrief(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadList() {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 3, seconds: 0.3, trace: trace, spansDir: t.TempDir()}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			for _, f := range rep.failures {
				t.Errorf("%s trace=%v: check failed: %s", w.Name, trace, f)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.Name, trace, rep.attempted, rep.failed)
			}
			for _, m := range catalogue(trace) {
				v, ok := rep.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not reported", w.Name, trace, m.Name)
				case !trace && !(v > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, v)
				}
			}
			if trace {
				for _, name := range crossed[w.Name] {
					if rep.metrics[name] == 0 {
						t.Errorf("%s: %s is 0 on a crossed layer", w.Name, name)
					}
				}
			}
		}
	}
}

// TestSelfTime checks the self-time arithmetic on overlapping and
// out-of-bounds children.
func TestSelfTime(t *testing.T) {
	at := func(us int) time.Time { return time.Unix(0, int64(us)*1000) }
	s := &tp.Span{Start: at(0), End: at(100), Child: []*tp.Span{
		{Start: at(10), End: at(30)},
		{Start: at(20), End: at(40)},  // overlaps the first: union 10..40
		{Start: at(90), End: at(120)}, // clipped to 90..100
	}}
	if got, want := selfTime(s), 60*time.Microsecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
}
