package sta

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/geom"
	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// Differential tests for the incremental STA: after every OptimizeDrives
// round, AnalyzeIncremental must be indistinguishable from a fresh full
// Analyze — identical reports (endpoint names, critical-path trace,
// slacks), identical raw arrival/predecessor state, identical endpoint
// group order.

// assertSameReports fails if two reports differ anywhere (including the
// critical path's instance/pin names and arrival floats).
func assertSameReports(t *testing.T, label string, full, inc *Report) {
	t.Helper()
	if inc.WorstSlackS != full.WorstSlackS || inc.CriticalPathS != full.CriticalPathS {
		t.Errorf("%s: slack/critical %g/%g, oracle %g/%g",
			label, inc.WorstSlackS, inc.CriticalPathS, full.WorstSlackS, full.CriticalPathS)
	}
	if !reflect.DeepEqual(inc, full) {
		t.Errorf("%s: incremental report differs from full analysis: %+v vs %+v", label, inc, full)
	}
}

// assertSameArrivals compares the complete propagated state of two
// timers: seen must match everywhere, arrivals and predecessor links at
// every seen pin. (Unseen pins carry stale scratch and are excluded.)
func assertSameArrivals(t *testing.T, label string, oracle, tm *Timer) {
	t.Helper()
	for i := range tm.seen {
		if tm.seen[i] != oracle.seen[i] {
			t.Fatalf("%s: pin %d seen=%v, oracle %v", label, i, tm.seen[i], oracle.seen[i])
		}
		if !tm.seen[i] {
			continue
		}
		if tm.arr[i] != oracle.arr[i] {
			t.Fatalf("%s: pin %d arrival %g, oracle %g", label, i, tm.arr[i], oracle.arr[i])
		}
		if tm.from[i] != oracle.from[i] {
			t.Fatalf("%s: pin %d from=%d, oracle %d", label, i, tm.from[i], oracle.from[i])
		}
	}
}

// checkIncrementalPerRound drives the exact OptimizeDrives loop shape by
// hand and pins every incremental pass against a fresh full Analyze on
// the same netlist state. Returns how many incremental passes ran so
// callers can require the test actually exercised the fast path.
func checkIncrementalPerRound(t *testing.T, label string, p *tech.PDK, nl *netlist.Netlist,
	wm *WireModel, libsMap map[tech.Tier]*cell.Library, target float64, maxRounds int) int {
	t.Helper()
	tm := NewTimer(p, nl, wm)
	rep, err := tm.Analyze(target)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < maxRounds; round++ {
		if rep.Met() {
			break
		}
		changed, _ := tm.upsizeRound(libsMap, target)
		if len(changed) == 0 {
			break
		}
		rep, err = tm.AnalyzeIncremental(target, changed)
		if err != nil {
			t.Fatal(err)
		}
		oracle := NewTimer(p, nl, wm)
		full, err := oracle.Analyze(target)
		if err != nil {
			t.Fatal(err)
		}
		rl := fmt.Sprintf("%s round %d (%d changed)", label, round, len(changed))
		assertSameReports(t, rl, full, rep)
		assertSameArrivals(t, rl, oracle, tm)
	}
	return tm.Stats().IncrementalPasses
}

// randomTimedNetlist builds a seeded random placed DAG: launch registers,
// a topologically-ordered soup of combinational gates at random positions
// (real HPWL wire delays), and capture registers. Same seed, same
// netlist — twin builds are used for oracle comparisons.
func randomTimedNetlist(t testing.TB, lib *cell.Library, seed int64) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New(fmt.Sprintf("rnd%d", seed))
	clk := nl.AddNet("clk", 2)
	clk.Clock = true
	tie := nl.AddCell("tie", lib.MustPick(cell.TieHi, 1))
	tn := nl.AddNet("tn", 0)
	nl.MustPin(tie, "Y", true, 0, tn)
	cb := nl.AddCell("cb", lib.MustPick(cell.ClkBuf, 4))
	nl.MustPin(cb, "A", false, cb.Cell.InputCapF, tn)
	nl.MustPin(cb, "Y", true, 0, clk)

	randPos := func() geom.Point {
		return geom.Pt(rng.Int63n(400_000), rng.Int63n(400_000))
	}
	var nets []*netlist.Net
	for i := 0; i < 8; i++ {
		ff := nl.AddCell(fmt.Sprintf("lff%d", i), lib.MustPick(cell.DFF, 1))
		ff.Pos = randPos()
		nl.MustPin(ff, "CK", false, ff.Cell.InputCapF, clk)
		q := nl.AddNet(fmt.Sprintf("q%d", i), 0.2)
		nl.MustPin(ff, "Q", true, 0, q)
		nets = append(nets, q)
	}
	kinds := []cell.Kind{cell.Inv, cell.Buf, cell.Nand2, cell.Nor2, cell.And2}
	for i := 0; i < 70; i++ {
		k := kinds[rng.Intn(len(kinds))]
		c := nl.AddCell(fmt.Sprintf("g%d", i), lib.MustPick(k, 1))
		c.Pos = randPos()
		nIn := 1
		if k != cell.Inv && k != cell.Buf {
			nIn = 2
		}
		for s := 0; s < nIn; s++ {
			// Inputs draw only from earlier nets: acyclic by construction.
			src := nets[rng.Intn(len(nets))]
			nl.MustPin(c, fmt.Sprintf("A%d", s), false, c.Cell.InputCapF, src)
		}
		y := nl.AddNet(fmt.Sprintf("w%d", i), 0.2)
		nl.MustPin(c, "Y", true, 0, y)
		nets = append(nets, y)
	}
	for i := 0; i < 8; i++ {
		ff := nl.AddCell(fmt.Sprintf("cff%d", i), lib.MustPick(cell.DFF, 1))
		ff.Pos = randPos()
		nl.MustPin(ff, "CK", false, ff.Cell.InputCapF, clk)
		nl.MustPin(ff, "D", false, ff.Cell.InputCapF, nets[len(nets)-1-i])
	}
	return nl
}

// TestIncrementalMatchesFullRandom pins every optimize round's
// incremental analysis against a fresh full pass on randomized seeded
// designs with tight targets (forcing several rounds of upsizing).
func TestIncrementalMatchesFullRandom(t *testing.T) {
	p, lib := libs(t)
	lm := map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}
	incPasses := 0
	for seed := int64(1); seed <= 6; seed++ {
		nl := randomTimedNetlist(t, lib, seed)
		first, err := Analyze(p, nl, nil, 50e-9)
		if err != nil {
			t.Fatal(err)
		}
		target := first.CriticalPathS / 3
		incPasses += checkIncrementalPerRound(t, fmt.Sprintf("seed %d", seed),
			p, nl, nil, lm, target, 6)
	}
	if incPasses == 0 {
		t.Fatal("no incremental pass ran: targets too loose to exercise the fast path")
	}
}

// TestIncrementalMatchesFullRoutedSystolic runs the per-round
// differential on a placed-and-routed systolic array (routed-RC wire
// model — the flow's real configuration).
func TestIncrementalMatchesFullRoutedSystolic(t *testing.T) {
	p, nl, wm, lib := routedFixture(t, 2, 2)
	lm := map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}
	first, err := Analyze(p, nl, wm, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	inc := checkIncrementalPerRound(t, "systolic", p, nl, wm, lm, first.CriticalPathS/2, 4)
	if inc == 0 {
		t.Fatal("no incremental pass ran on the systolic fixture")
	}
}

// TestOptimizeDrivesForceFullOracle runs OptimizeDrives twice on twin
// netlists — once on the normal incremental path, once with forceFull
// (full Analyze every round through the identical code path) — and
// requires identical results: the OptimizeResult, every final cell
// choice, and the endpoint group summaries.
func TestOptimizeDrivesForceFullOracle(t *testing.T) {
	p, lib := libs(t)
	lm := map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}
	for seed := int64(1); seed <= 4; seed++ {
		nlInc := randomTimedNetlist(t, lib, seed)
		nlFull := randomTimedNetlist(t, lib, seed)
		first, err := Analyze(p, nlInc, nil, 50e-9)
		if err != nil {
			t.Fatal(err)
		}
		target := first.CriticalPathS / 3

		tmInc := NewTimer(p, nlInc, nil)
		resInc, err := tmInc.OptimizeDrives(lm, target, 4)
		if err != nil {
			t.Fatal(err)
		}
		tmFull := NewTimer(p, nlFull, nil)
		tmFull.forceFull = true
		resFull, err := tmFull.OptimizeDrives(lm, target, 4)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(resInc, resFull) {
			t.Errorf("seed %d: OptimizeResult differs: %+v vs forceFull %+v", seed, resInc, resFull)
		}
		for i, inst := range nlInc.Instances {
			if inst.Cell.Drive != nlFull.Instances[i].Cell.Drive {
				t.Errorf("seed %d: %s sized X%d, forceFull X%d",
					seed, inst.Name, inst.Cell.Drive, nlFull.Instances[i].Cell.Drive)
			}
		}
		gInc, err := GroupEndpoints(p, nlInc, tmInc.wm, resInc.Final)
		if err != nil {
			t.Fatal(err)
		}
		gFull, err := GroupEndpoints(p, nlFull, tmFull.wm, resFull.Final)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gInc, gFull) {
			t.Errorf("seed %d: endpoint groups differ: %+v vs %+v", seed, gInc, gFull)
		}
		if tmInc.Stats().IncrementalPasses == 0 {
			t.Errorf("seed %d: normal path ran no incremental passes", seed)
		}
		if tmFull.Stats().IncrementalPasses != 0 {
			t.Errorf("seed %d: forceFull oracle ran incremental passes", seed)
		}
	}
}

// TestIncrementalInvalidation: a pass that repurposes the shared scratch
// (AnalyzeHold's min-arrival pass) must force the next
// AnalyzeIncremental to fall back to a full Analyze — and the fallback
// must still produce the exact full-analysis report.
func TestIncrementalInvalidation(t *testing.T) {
	p, lib := libs(t)
	nl := randomTimedNetlist(t, lib, 42)
	tm := NewTimer(p, nl, nil)
	if _, err := tm.Analyze(50e-9); err != nil {
		t.Fatal(err)
	}
	if !tm.valid {
		t.Fatal("Analyze must validate the scratch")
	}
	if _, err := tm.AnalyzeHold(); err != nil {
		t.Fatal(err)
	}
	if tm.valid {
		t.Fatal("AnalyzeHold must invalidate the max-arrival scratch")
	}
	before := tm.Stats()
	rep, err := tm.AnalyzeIncremental(50e-9, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := tm.Stats()
	if after.FullPasses != before.FullPasses+1 || after.IncrementalPasses != before.IncrementalPasses {
		t.Errorf("invalidated incremental call must fall back to a full pass: %+v -> %+v", before, after)
	}
	full, err := NewTimer(p, nl, nil).Analyze(50e-9)
	if err != nil {
		t.Fatal(err)
	}
	assertSameReports(t, "post-hold fallback", full, rep)

	if _, err := tm.AnalyzeIncremental(0, nil); err == nil {
		t.Error("non-positive target must be rejected")
	}
}

// TestIncrementalStatsCounted: the flow metrics read these counters, so
// pin their semantics — incremental passes touch strictly fewer
// instances than a full pass would.
func TestIncrementalStatsCounted(t *testing.T) {
	p, lib := libs(t)
	lm := map[tech.Tier]*cell.Library{tech.TierSiCMOS: lib}
	nl := randomTimedNetlist(t, lib, 7)
	first, err := Analyze(p, nl, nil, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	tm := NewTimer(p, nl, nil)
	if _, err := tm.OptimizeDrives(lm, first.CriticalPathS/3, 4); err != nil {
		t.Fatal(err)
	}
	st := tm.Stats()
	if st.FullPasses != 1 {
		t.Errorf("OptimizeDrives should run exactly one full pass, got %d", st.FullPasses)
	}
	if st.IncrementalPasses == 0 {
		t.Error("tight target should force incremental rounds")
	}
	fullEquiv := st.IncrementalPasses * len(nl.Instances)
	if st.RecomputedInsts+st.SkippedInsts != fullEquiv {
		t.Errorf("recomputed+skipped=%d, want %d (passes × instances)",
			st.RecomputedInsts+st.SkippedInsts, fullEquiv)
	}
	if st.SkippedInsts == 0 {
		t.Error("incremental passes should skip at least some instances")
	}
}
