package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	tp "transpimlib"
)

// selfTime is a span's duration minus the part of its interval that
// the union of its children covers.
func selfTime(s *tp.Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range s.Child {
		a, b := c.Start, c.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.End.Sub(s.Start) - covered
}

// spanMetric maps a span name to the per-layer metric of its self
// time; batch[k] spans map through the "batch" key.
var spanMetric = map[string]string{
	"cluster_request": "cluster.route_us",
	"request":         "engine.span.deliver_us",
	"queue":           "engine.span.queue_us",
	"batch":           "engine.span.handoff_us",
	"transfer_in":     "engine.span.transfer_in_us",
	"setup":           "engine.span.setup_us",
	"kernel":          "engine.span.kernel_us",
	"transfer_out":    "engine.span.transfer_out_us",
}

// spanSelfTimes collects, per per-layer metric, the self times in
// microseconds of every matching span of the given trees.
func spanSelfTimes(roots []*tp.Span) map[string][]float64 {
	out := map[string][]float64{}
	var walk func(s *tp.Span)
	walk = func(s *tp.Span) {
		name := s.Name
		if strings.HasPrefix(name, "batch[") {
			name = "batch"
		}
		if m, ok := spanMetric[name]; ok {
			out[m] = append(out[m], float64(selfTime(s).Nanoseconds())/1e3)
		}
		for _, c := range s.Child {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// clientTrace pairs the benchmark's client span with the system's own
// span tree for the same request.
type clientTrace struct {
	call result
	root *tp.Span
}

// matchTraces keys the retained span trees by trace id and pairs each
// traced call with its tree. It returns the pairs and the number of
// calls whose tree was not retained.
func matchTraces(calls []result, traces []*tp.Trace) ([]clientTrace, int) {
	byID := make(map[uint64]*tp.Span, len(traces))
	for _, t := range traces {
		byID[t.ID] = t.Root
	}
	var out []clientTrace
	missing := 0
	for _, c := range calls {
		if root, ok := byID[c.traceID]; ok && c.traceID != 0 {
			out = append(out, clientTrace{call: c, root: root})
		} else {
			missing++
		}
	}
	return out, missing
}

// writeSpans writes the traced calls as one JSON document: per request
// the client span and, under it, the system's span tree, flattened to
// [parent index, name, start ns, end ns] rows with times relative to
// the client span's start (index 0 is the client span).
func writeSpans(dir, workload string, seed int64, traces []clientTrace) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"format\":[\"parent\",\"name\",\"start_ns\",\"end_ns\"],\"traces\":[\n", workload, seed)
	for i, t := range traces {
		base := t.call.start
		rows := [][]any{{-1, "client", 0, t.call.end.Sub(base).Nanoseconds()}}
		var flat func(s *tp.Span, parent int)
		flat = func(s *tp.Span, parent int) {
			rows = append(rows, []any{parent, s.Name, s.Start.Sub(base).Nanoseconds(), s.End.Sub(base).Nanoseconds()})
			me := len(rows) - 1
			for _, c := range s.Child {
				flat(c, me)
			}
		}
		if t.root != nil {
			flat(t.root, 0)
		}
		b, err := json.Marshal(map[string]any{"id": t.call.traceID, "kind": kindName(t.call.kind), "spans": rows})
		if err != nil {
			f.Close()
			return "", err
		}
		w.Write(b)
		if i < len(traces)-1 {
			w.WriteString(",")
		}
		w.WriteString("\n")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func kindName(k int) string {
	switch k {
	case kindProgram:
		return "program"
	case kindRunner:
		return "runner"
	}
	return "function"
}
