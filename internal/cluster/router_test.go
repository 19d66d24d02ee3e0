package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/engine"
)

// fakeExec is a scriptable execution stage: it echoes inputs, reports
// a settable queue depth, and can be flipped into a failing state that
// returns the engine's infrastructure error.
type fakeExec struct {
	id      int
	depth   atomic.Int64
	failing atomic.Bool
	degrade atomic.Bool
	calls   atomic.Uint64
}

func (f *fakeExec) EvaluateBatchTenant(tenant string, fn core.Function, p core.Params, xs []float32) ([]float32, engine.RequestStats, error) {
	f.calls.Add(1)
	if f.failing.Load() {
		return nil, engine.RequestStats{}, engine.ErrEngineClosed
	}
	out := make([]float32, len(xs))
	copy(out, xs)
	st := engine.RequestStats{Degraded: f.degrade.Load()}
	return out, st, nil
}

func (f *fakeExec) QueueDepth() int     { return int(f.depth.Load()) }
func (f *fakeExec) Stats() engine.Stats { return engine.Stats{} }
func (f *fakeExec) Close()              {}

func newFakes(n int) ([]*fakeExec, []engine.Executor) {
	fakes := make([]*fakeExec, n)
	execs := make([]engine.Executor, n)
	for i := range fakes {
		fakes[i] = &fakeExec{id: i}
		execs[i] = fakes[i]
	}
	return fakes, execs
}

func TestRingCandidatesDistinct(t *testing.T) {
	r := newRing(8, 64, 7)
	var scratch [maxReplication]int
	for h := uint64(0); h < 1000; h++ {
		cands := r.candidates(splitmix64(h), 4, scratch[:0])
		if len(cands) != 4 {
			t.Fatalf("h=%d: %d candidates, want 4", h, len(cands))
		}
		seen := map[int]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("h=%d: duplicate replica %d in %v", h, c, cands)
			}
			seen[c] = true
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	r := newRing(4, 64, 1)
	var scratch [maxReplication]int
	counts := make([]int, 4)
	for h := uint64(0); h < 4000; h++ {
		counts[r.candidates(splitmix64(h), 1, scratch[:0])[0]]++
	}
	for rep, n := range counts {
		if n < 400 {
			t.Fatalf("replica %d owns only %d/4000 keys — ring badly skewed: %v", rep, n, counts)
		}
	}
}

// scriptedRun drives one deterministic request sequence through a
// fresh 4-replica cluster (fakes), with per-tenant quotas on a fake
// clock and replica 1 failing for a mid-sequence window, and returns
// the placement log and the shed set.
func scriptedRun(t *testing.T) ([]placement, []int) {
	t.Helper()
	fakes, execs := newFakes(4)
	// Fixed, asymmetric queue depths so least-loaded fallback has a
	// deterministic order to prefer.
	for i, f := range fakes {
		f.depth.Store(int64(i))
	}
	var tick atomic.Int64
	clock := func() time.Time {
		// 10ms per admission decision: refills are a pure function of
		// the request index.
		return time.Unix(0, tick.Add(1)*int64(10*time.Millisecond))
	}
	var mu sync.Mutex
	var log []placement
	cfg := Config{
		Replication: 2,
		Seed:        42,
		Quotas: map[string]Quota{
			// "hot" consumes 64 elements per 40ms of fake clock
			// (1600/s); a 800/s rate exhausts the burst mid-sequence.
			"hot": {Rate: 800, Burst: 200},
		},
		Clock: clock,
		OnPlace: func(p placement) {
			mu.Lock()
			log = append(log, p)
			mu.Unlock()
		},
	}
	c, err := NewWithExecutors(cfg, execs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var shed []int
	tenants := []string{"hot", "a", "b", "c"}
	fns := []core.Function{core.Sigmoid, core.Exp, core.Tanh}
	xs := make([]float32, 64)
	for i := 0; i < 120; i++ {
		// Replica 1 fails for a window in the middle of the sequence:
		// requests placed there fail over and, after enough strikes,
		// quarantine it.
		fakes[1].failing.Store(30 <= i && i < 60)
		tn := tenants[i%len(tenants)]
		fn := fns[i%len(fns)]
		p := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 10}
		_, _, err := c.EvaluateBatchTenant(tn, fn, p, xs)
		if errors.Is(err, ErrOverloaded) {
			shed = append(shed, i)
		} else if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	return log, shed
}

// TestRouterDeterministic pins the satellite contract: same seed +
// same request sequence ⇒ identical placement decisions and identical
// shed set, including a replica failure window that quarantines a
// replica mid-sequence.
func TestRouterDeterministic(t *testing.T) {
	log1, shed1 := scriptedRun(t)
	log2, shed2 := scriptedRun(t)
	if len(log1) != len(log2) {
		t.Fatalf("placement logs differ in length: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("placement %d differs: %+v vs %+v", i, log1[i], log2[i])
		}
	}
	if fmt.Sprint(shed1) != fmt.Sprint(shed2) {
		t.Fatalf("shed sets differ: %v vs %v", shed1, shed2)
	}
	if len(shed1) == 0 {
		t.Fatal("scripted quota never shed — the scenario has lost its teeth")
	}
	// The failure window must actually have exercised failover: some
	// placement names replica 1 and a later one re-placed elsewhere.
	var failoverSeen bool
	for _, p := range log1 {
		if p.Replica != 1 && p.Primary == 1 && !p.Shed {
			failoverSeen = true
		}
	}
	if !failoverSeen {
		t.Fatal("no request was re-placed off replica 1 during its failure window")
	}
}

// TestRouterQuarantineShiftsTraffic verifies the health integration:
// strikes during the failure window quarantine replica 1, after which
// placements skip it without first attempting it.
func TestRouterQuarantineShiftsTraffic(t *testing.T) {
	log, _ := scriptedRun(t)
	// After the window closes (replica healthy again but quarantined),
	// placements with primary 1 must still route elsewhere until the
	// probation penalty lapses.
	post := 0
	for _, p := range log {
		if p.Primary == 1 && p.Replica != 1 {
			post++
		}
	}
	if post == 0 {
		t.Fatal("quarantine never redirected a primary-1 placement")
	}
}

// TestPlaceZeroAlloc pins the routing hot path: placement and key
// hashing allocate nothing, so an N=1 cluster preserves the engine's
// zero-allocation steady state.
func TestPlaceZeroAlloc(t *testing.T) {
	_, execs := newFakes(4)
	c, err := NewWithExecutors(Config{Replication: 2, Seed: 3}, execs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 10}.Normalized()
	if avg := testing.AllocsPerRun(200, func() {
		h := keyHash(c.cfg.Seed, core.Sigmoid, p, "tenant-7")
		_ = c.place(h, 1, 0)
	}); avg != 0 {
		t.Fatalf("place+keyHash allocates %.1f objects per request, want 0", avg)
	}
}

// TestRouterConcurrentRace exercises routing, failover, and admission
// under concurrent submitters so the race detector sees the shared
// state (run with -race in CI).
func TestRouterConcurrentRace(t *testing.T) {
	fakes, execs := newFakes(4)
	def := Quota{Rate: 1e7, Burst: 1e7}
	c, err := NewWithExecutors(Config{Replication: 2, Seed: 5, DefaultQuota: &def, MaxQueue: 1 << 20}, execs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fakes[2].failing.Store(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs := make([]float32, 32)
			p := core.Params{Method: core.LLUT, SizeLog2: 10}
			for i := 0; i < 50; i++ {
				tn := fmt.Sprintf("t%d", (g+i)%5)
				if _, _, err := c.EvaluateBatchTenant(tn, core.Exp, p, xs); err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Requests != 400 {
		t.Fatalf("requests = %d, want 400", st.Requests)
	}
	if st.Routed[2] != 0 {
		t.Fatalf("failing replica 2 served %d requests", st.Routed[2])
	}
}

// TestWarmRequestAllocs pins the routed round trip: on an N=2 cluster
// of real engines, a warm 1K request allocates only its output slice.
func TestWarmRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	cfg := engine.Config{DPUs: 4, Shards: 1}
	c, err := New(Config{Engines: []engine.Config{cfg, cfg}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	xs := make([]float32, 1024)
	for i := range xs {
		xs[i] = float32(i)/128 - 4
	}
	if _, _, err := c.EvaluateBatchTenant("t", core.Sigmoid, testParams(), xs); err != nil {
		t.Fatal(err) // warm: tables built, plan compiled
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, err := c.EvaluateBatchTenant("t", core.Sigmoid, testParams(), xs); err != nil {
			t.Fatal(err)
		}
	}); avg != 1 {
		t.Fatalf("warm 1K cluster request: %.1f allocs, want 1 (the output)", avg)
	}
}
