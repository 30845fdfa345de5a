package sta

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// cornerScales draws k deterministic per-tier delay-scale corners across
// the full legal range (minScale-ish up to ~2×). Corner 0 is pinned to
// all-ones so every run also checks the nominal-identity claim.
func cornerScales(seed int64, k int) [][tech.NumTiers]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][tech.NumTiers]float64, k)
	for i := range out {
		for t := range out[i] {
			out[i][t] = 0.05 + rng.Float64()*1.95
		}
	}
	if k > 0 {
		for t := range out[0] {
			out[0][t] = 1.0
		}
	}
	return out
}

// assertBatchMatchesOracle prices scales through one AnalyzeBatch call
// and through the serial per-corner SetTierDelayScale path, requiring
// bit-for-bit equal critical paths.
func assertBatchMatchesOracle(t *testing.T, label string, bt *BatchTimer, oracle *Timer, scales [][tech.NumTiers]float64) {
	t.Helper()
	got := make([]float64, len(scales))
	if err := bt.AnalyzeBatch(scales, got); err != nil {
		t.Fatalf("%s: AnalyzeBatch: %v", label, err)
	}
	for k, sc := range scales {
		oracle.SetTierDelayScale(sc[:])
		rep, err := oracle.Analyze(1.0)
		if err != nil {
			t.Fatalf("%s: oracle corner %d: %v", label, k, err)
		}
		if math.Float64bits(got[k]) != math.Float64bits(rep.CriticalPathS) {
			t.Fatalf("%s: corner %d diverged: batch %.17g vs oracle %.17g",
				label, k, got[k], rep.CriticalPathS)
		}
	}
}

// TestBatchMatchesPerCornerRandom pins AnalyzeBatch against the serial
// per-corner oracle on randomized acyclic designs at batch sizes 1, 7
// and 64 — including a batch smaller than the timer's capacity.
func TestBatchMatchesPerCornerRandom(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		nl := randomTimedNetlist(t, lib, seed)
		bt, err := NewBatchTimer(p, nl, nil, 64)
		if err != nil {
			t.Fatal(err)
		}
		oracle := NewTimer(p, nl, nil)
		for _, k := range []int{1, 7, 64} {
			scales := cornerScales(seed*100+int64(k), k)
			assertBatchMatchesOracle(t, "random", bt, oracle, scales)
		}
	}
}

// TestBatchMatchesPerCornerRouted runs the same oracle comparison over
// the routed systolic fixture — cached wire RC, macros, ILV parasitics —
// reusing one BatchTimer across batch sizes like the yield engine does.
func TestBatchMatchesPerCornerRouted(t *testing.T) {
	p, nl, wm, _ := routedFixture(t, 2, 2)
	bt, err := NewBatchTimer(p, nl, wm, 64)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewTimer(p, nl, wm)
	for _, k := range []int{1, 7, 64} {
		scales := cornerScales(int64(k), k)
		assertBatchMatchesOracle(t, "routed", bt, oracle, scales)
	}
}

// TestBatchRelaxesSharedSink pins the strict-> relax against the serial
// oracle. In a checked netlist each data input is written by one arc,
// so the compiled table's relax run stays empty; here every capture
// flop's D pin is grafted onto the sinks of every launch flop's Q net
// as well. Those short arcs write the D pins first, and the real
// fan-in cone must then win by relaxation.
func TestBatchRelaxesSharedSink(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	nl := randomTimedNetlist(t, lib, 3)
	plain, err := Analyze(p, nl, nil, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pin := func(inst *netlist.Instance, name string) *netlist.Pin {
		for _, p := range inst.Pins() {
			if p.Name == name {
				return p
			}
		}
		t.Fatalf("%s has no pin %s", inst.Name, name)
		return nil
	}
	var qs []*netlist.Net
	for _, inst := range nl.Instances {
		if strings.HasPrefix(inst.Name, "lff") {
			qs = append(qs, pin(inst, "Q").Net)
		}
	}
	for _, inst := range nl.Instances {
		if strings.HasPrefix(inst.Name, "cff") {
			d := pin(inst, "D")
			for _, q := range qs {
				q.Sinks = append(q.Sinks, d)
			}
		}
	}
	bt, err := NewBatchTimer(p, nl, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewTimer(p, nl, nil)
	assertBatchMatchesOracle(t, "shared sink", bt, oracle, cornerScales(9, 8))
	got := make([]float64, 1)
	if err := bt.AnalyzeBatch([][tech.NumTiers]float64{{1, 1, 1}}, got); err != nil {
		t.Fatal(err)
	}
	// The grafted arcs load the Q nets, so the path gets slower; keeping
	// the first (short) write instead would make it faster.
	if got[0] < plain.CriticalPathS {
		t.Fatalf("grafted critical path %g below the plain %g", got[0], plain.CriticalPathS)
	}
}

// TestBatchConcurrentWidths prices 128 corners in 16-corner slabs fanned
// over 1, 2 and 8 goroutines (one BatchTimer + WireModel per goroutine,
// the vary.Engine sharing pattern) and requires every width to agree
// bit-for-bit with the serial per-corner oracle. Run under -race this is
// the proof that concurrent BatchTimers over one read-only netlist and
// routing result do not interfere.
func TestBatchConcurrentWidths(t *testing.T) {
	p, nl, routes, _ := routedFixtureRoutes(t, 2, 2)
	const total, slab = 128, 16
	scales := cornerScales(7, total)

	want := make([]float64, total)
	oracle := NewTimer(p, nl, NewWireModel(p, routes))
	for k, sc := range scales {
		oracle.SetTierDelayScale(sc[:])
		rep, err := oracle.Analyze(1.0)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = rep.CriticalPathS
	}

	for _, width := range []int{1, 2, 8} {
		got := make([]float64, total)
		var next atomic.Int64
		var wg sync.WaitGroup
		errc := make(chan error, width)
		for w := 0; w < width; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bt, err := NewBatchTimer(p, nl, NewWireModel(p, routes), slab)
				if err != nil {
					errc <- err
					return
				}
				for {
					lo := int(next.Add(slab)) - slab
					if lo >= total {
						return
					}
					if err := bt.AnalyzeBatch(scales[lo:lo+slab], got[lo:lo+slab]); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("width %d corner %d: %.17g vs oracle %.17g", width, k, got[k], want[k])
			}
		}
	}
}

// TestBatchValidation covers the argument contract: zero corners,
// capacity overflow, mismatched output length and bad capacity.
func TestBatchValidation(t *testing.T) {
	p := tech.Default130()
	lib, err := cell.NewLibrary(p, tech.TierSiCMOS)
	if err != nil {
		t.Fatal(err)
	}
	nl := randomTimedNetlist(t, lib, 1)
	if _, err := NewBatchTimer(p, nl, nil, 0); err == nil {
		t.Fatal("want error for zero capacity")
	}
	bt, err := NewBatchTimer(p, nl, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.AnalyzeBatch(nil, nil); err == nil {
		t.Fatal("want error for empty batch")
	}
	five := cornerScales(1, 5)
	if err := bt.AnalyzeBatch(five, make([]float64, 5)); err == nil {
		t.Fatal("want error for batch beyond capacity")
	}
	if err := bt.AnalyzeBatch(five[:4], make([]float64, 3)); err == nil {
		t.Fatal("want error for critOut length mismatch")
	}
}

// BenchmarkBatchCornerSTA is the benchdiff-tracked cost of pricing a
// 32-corner batch with ONE levelization walk over the routed fixture —
// the inner kernel the Monte-Carlo yield engine runs per slab. The
// serial equivalent is 32 full Analyze passes (≈32× BenchmarkSTAFullTiming's
// setup half).
func BenchmarkBatchCornerSTA(b *testing.B) {
	p, nl, wm, _ := routedFixture(b, 2, 2)
	bt, err := NewBatchTimer(p, nl, wm, 32)
	if err != nil {
		b.Fatal(err)
	}
	scales := cornerScales(1, 32)
	out := make([]float64, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bt.AnalyzeBatch(scales, out); err != nil {
			b.Fatal(err)
		}
	}
}
