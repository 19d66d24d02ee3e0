package profiler

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

func nowNano() int64 { return time.Now().UnixNano() }

// Frame is one leaf of the attribution tree: the full label stack and
// its accumulated counters. WallCycles is the frame's share of modeled
// launch wall cycles (sums to the simulator's attributed kernel
// cycles); Cycles is the per-class issue-cycle charge (the paper's
// Fig.-7 measure); Ops is instructions retired.
type Frame struct {
	Tenant     string `json:"tenant"`
	Function   string `json:"function"`
	Method     string `json:"method"`
	Stage      string `json:"stage"`
	Class      string `json:"class"`
	Ops        uint64 `json:"ops"`
	Cycles     uint64 `json:"cycles"`
	WallCycles uint64 `json:"wall_cycles"`
}

// key renders the frame's identity (not its values).
func (f Frame) key() string {
	return f.Tenant + "\x00" + f.Function + "\x00" + f.Method + "\x00" + f.Stage + "\x00" + f.Class
}

// Stack renders the frame as a folded flamegraph stack,
// root-to-leaf, semicolon-separated.
func (f Frame) Stack() string {
	t := f.Tenant
	if t == "" {
		t = "-"
	}
	return t + ";" + f.Function + ";" + f.Method + ";" + f.Stage + ";" + f.Class
}

// Profile is a point-in-time (or interval) snapshot of the collector.
type Profile struct {
	StartUnixNano int64   `json:"start_unix_nano"`
	EndUnixNano   int64   `json:"end_unix_nano"`
	Launches      uint64  `json:"launches"`
	TotalOps      uint64  `json:"total_ops"`
	TotalCycles   uint64  `json:"total_cycles"`
	TotalWall     uint64  `json:"total_wall_cycles"`
	Frames        []Frame `json:"frames"`
}

// Snapshot returns the cumulative profile since the collector
// started. Frames are sorted by descending wall cycles (ties broken
// by identity), so the output is deterministic for a given state.
func (c *Collector) Snapshot() Profile {
	if c == nil {
		return Profile{}
	}
	now := nowNano()
	p := Profile{
		StartUnixNano: c.start.UnixNano(),
		EndUnixNano:   now,
		Launches:      c.launches.Load(),
	}
	c.mu.RLock()
	p.Frames = make([]Frame, 0, len(c.frames)+1)
	for k, cell := range c.frames {
		p.Frames = append(p.Frames, Frame{
			Tenant:     k.tenant,
			Function:   k.function,
			Method:     k.method,
			Stage:      k.stage,
			Class:      k.class.String(),
			Ops:        cell.ops.Load(),
			Cycles:     cell.cycles.Load(),
			WallCycles: cell.wall.Load(),
		})
	}
	if c.overflow != nil {
		p.Frames = append(p.Frames, Frame{
			Tenant: "~other", Function: "~other", Method: "~other",
			Stage: "~other", Class: "~other",
			Ops:        c.overflow.ops.Load(),
			Cycles:     c.overflow.cycles.Load(),
			WallCycles: c.overflow.wall.Load(),
		})
	}
	c.mu.RUnlock()
	sortFrames(p.Frames)
	p.total()
	return p
}

func (p *Profile) total() {
	p.TotalOps, p.TotalCycles, p.TotalWall = 0, 0, 0
	for i := range p.Frames {
		p.TotalOps += p.Frames[i].Ops
		p.TotalCycles += p.Frames[i].Cycles
		p.TotalWall += p.Frames[i].WallCycles
	}
}

func sortFrames(fs []Frame) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].WallCycles != fs[j].WallCycles {
			return fs[i].WallCycles > fs[j].WallCycles
		}
		return fs[i].key() < fs[j].key()
	})
}

// Merge sums any number of profiles frame-by-frame — the cluster's
// merged /debug/profile across replica collectors.
func Merge(profiles ...Profile) Profile {
	var out Profile
	idx := make(map[string]int)
	for _, p := range profiles {
		if out.StartUnixNano == 0 || (p.StartUnixNano != 0 && p.StartUnixNano < out.StartUnixNano) {
			out.StartUnixNano = p.StartUnixNano
		}
		if p.EndUnixNano > out.EndUnixNano {
			out.EndUnixNano = p.EndUnixNano
		}
		out.Launches += p.Launches
		for _, f := range p.Frames {
			k := f.key()
			if i, ok := idx[k]; ok {
				out.Frames[i].Ops += f.Ops
				out.Frames[i].Cycles += f.Cycles
				out.Frames[i].WallCycles += f.WallCycles
			} else {
				idx[k] = len(out.Frames)
				out.Frames = append(out.Frames, f)
			}
		}
	}
	sortFrames(out.Frames)
	out.total()
	return out
}

// Sub returns the interval profile cur − prev (per-frame saturating
// subtraction, zero frames dropped) — the /debug/profile?seconds=N
// window. Counters are monotonic, so on a live collector cur ≥ prev
// frame-by-frame and the subtraction is exact.
func Sub(cur, prev Profile) Profile {
	old := make(map[string]Frame, len(prev.Frames))
	for _, f := range prev.Frames {
		old[f.key()] = f
	}
	out := Profile{
		StartUnixNano: prev.EndUnixNano,
		EndUnixNano:   cur.EndUnixNano,
		Launches:      cur.Launches - prev.Launches,
	}
	for _, f := range cur.Frames {
		if o, ok := old[f.key()]; ok {
			f.Ops -= min64(f.Ops, o.Ops)
			f.Cycles -= min64(f.Cycles, o.Cycles)
			f.WallCycles -= min64(f.WallCycles, o.WallCycles)
		}
		if f.Ops == 0 && f.Cycles == 0 && f.WallCycles == 0 {
			continue
		}
		out.Frames = append(out.Frames, f)
	}
	sortFrames(out.Frames)
	out.total()
	return out
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// FrameDelta is one frame's change between two profiles.
type FrameDelta struct {
	Frame              // identity fields; Ops/Cycles/WallCycles carry the NEW values
	OldOps     uint64  `json:"old_ops"`
	OldCycles  uint64  `json:"old_cycles"`
	OldWall    uint64  `json:"old_wall_cycles"`
	DeltaWall  int64   `json:"delta_wall_cycles"`
	DeltaCycle int64   `json:"delta_cycles"`
	Growth     float64 `json:"growth"` // (new−old)/old on wall cycles; +Inf for new frames
}

// Diff subtracts old from new frame-by-frame and returns only the
// frames that changed, sorted by |delta wall| descending. Two
// identical profiles produce an empty diff — the zero-regression
// contract tplprof -diff and the CI gate rely on.
func Diff(oldP, newP Profile) []FrameDelta {
	old := make(map[string]Frame, len(oldP.Frames))
	for _, f := range oldP.Frames {
		old[f.key()] = f
	}
	seen := make(map[string]bool, len(newP.Frames))
	var out []FrameDelta
	add := func(nf Frame, of Frame) {
		d := FrameDelta{
			Frame:      nf,
			OldOps:     of.Ops,
			OldCycles:  of.Cycles,
			OldWall:    of.WallCycles,
			DeltaWall:  int64(nf.WallCycles) - int64(of.WallCycles),
			DeltaCycle: int64(nf.Cycles) - int64(of.Cycles),
		}
		if d.DeltaWall == 0 && d.DeltaCycle == 0 && nf.Ops == of.Ops {
			return
		}
		if of.WallCycles > 0 {
			d.Growth = float64(d.DeltaWall) / float64(of.WallCycles)
		} else if nf.WallCycles > 0 {
			d.Growth = 1e308 // new frame: infinite growth, render as "new"
		}
		out = append(out, d)
	}
	for _, nf := range newP.Frames {
		seen[nf.key()] = true
		add(nf, old[nf.key()])
	}
	for _, of := range oldP.Frames {
		if !seen[of.key()] {
			add(Frame{
				Tenant: of.Tenant, Function: of.Function, Method: of.Method,
				Stage: of.Stage, Class: of.Class,
			}, of)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := abs64(out[i].DeltaWall), abs64(out[j].DeltaWall)
		if ai != aj {
			return ai > aj
		}
		return out[i].key() < out[j].key()
	})
	return out
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Rollup collapses a profile to (function, method, class) — the CI
// cycle-gate granularity. Tenant and stage are dropped; frames merge.
func Rollup(p Profile) Profile {
	out := Profile{
		StartUnixNano: p.StartUnixNano,
		EndUnixNano:   p.EndUnixNano,
		Launches:      p.Launches,
	}
	idx := make(map[string]int)
	for _, f := range p.Frames {
		f.Tenant, f.Stage = "", ""
		k := f.key()
		if i, ok := idx[k]; ok {
			out.Frames[i].Ops += f.Ops
			out.Frames[i].Cycles += f.Cycles
			out.Frames[i].WallCycles += f.WallCycles
		} else {
			idx[k] = len(out.Frames)
			out.Frames = append(out.Frames, f)
		}
	}
	sortFrames(out.Frames)
	out.total()
	return out
}

// WriteFolded writes the profile as folded flamegraph stacks —
// `tenant;function;method;stage;class <wall-cycles>` per line, the
// input format of flamegraph.pl / speedscope / inferno. Lines follow
// the profile's frame order (wall-descending), so output is
// deterministic.
func (p Profile) WriteFolded(w io.Writer) error {
	var b strings.Builder
	for _, f := range p.Frames {
		if f.WallCycles == 0 {
			continue
		}
		b.WriteString(f.Stack())
		fmt.Fprintf(&b, " %d\n", f.WallCycles)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Top returns the profile's n largest frames by wall cycles (the
// frames are already sorted; this is a bounds-checked prefix).
func (p Profile) Top(n int) []Frame {
	if n < 0 || n > len(p.Frames) {
		n = len(p.Frames)
	}
	return p.Frames[:n]
}
