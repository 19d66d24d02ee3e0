// Command perfbench is the transpimlib benchmark. It runs one named
// workload against the serving stack (engine, cluster, fused programs,
// observers) or the Fig. 9 simulator runners, checks every output, and
// prints human-readable lines followed by one JSON result line.
//
//	go run . --workload serve-1k --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports the per-layer metrics of a traced run and
// writes the collected span trees under --spans. The exit code is 1
// when any output, modeled-time, reconciliation or fault-log check
// fails. See README.md for the workloads and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// report is the outcome of one run.
type report struct {
	attempted int
	failed    int
	failures  []string // check failures; any makes the run incorrect
	metrics   map[string]float64
	notes     []string // human-readable context (sample counts, spans file)
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds a measured phase's requests to attempted/failed and
// records its first failure.
func (r *report) count(p phase) {
	r.attempted += len(p.calls)
	r.failed += p.failed()
	if err := p.firstErr(); err != nil {
		r.fail("%d of %d requests failed; first: %v", p.failed(), len(p.calls), err)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name (see README.md)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	flag.StringVar(&o.spansDir, "spans", ".bench_build/perfbench/spans", "directory the traced run writes span trees to")
	flag.Parse()
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !printReport(o, rep) {
		os.Exit(1)
	}
}

// run executes the named workload.
func run(o options) (*report, error) {
	for _, w := range workloadList() {
		if w.Name == o.workload {
			rep, err := w.run(o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", o.workload, err)
			}
			return rep, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// catalogue returns the metrics a run reports: end-to-end untraced,
// per-layer traced.
func catalogue(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printReport writes the human-readable lines and the final JSON line,
// and reports whether the run is correct.
func printReport(o options, rep *report) bool {
	for _, m := range catalogue(o.trace) {
		if _, ok := rep.metrics[m.Name]; !ok {
			rep.fail("metric %s was not measured", m.Name)
		}
	}
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g (%s)\n", o.workload, o.seed, o.seconds, mode)
	out := jsonResult{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range catalogue(o.trace) {
		v := rep.metrics[m.Name]
		out.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
		fmt.Printf("  %-32s %14.6g %-10s %s\n", m.Name, v, m.Unit, m.Moves)
	}
	if !o.trace {
		fmt.Printf("  %-32s %14.6g %s\n", "error_rate", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	}
	sort.Strings(rep.notes)
	for _, n := range rep.notes {
		fmt.Println("  note:", n)
	}
	for _, f := range rep.failures {
		fmt.Println("  CHECK FAILED:", f)
	}
	out.Correct = len(rep.failures) == 0 && rep.attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return out.Correct
}
