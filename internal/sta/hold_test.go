package sta

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"m3d/internal/cell"
	"m3d/internal/netlist"
	"m3d/internal/synth"
	"m3d/internal/tech"
)

func TestHoldCleanOnPipeline(t *testing.T) {
	p, lib := libs(t)
	nl := pipelineNetlist(t, lib, 3)
	rep, err := AnalyzeHold(p, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Endpoints == 0 {
		t.Fatal("no endpoints")
	}
	// A clk-to-Q plus an inverter chain comfortably exceeds 15 ps.
	if rep.Violations != 0 {
		t.Errorf("unexpected hold violations: %d (worst %g at %s)",
			rep.Violations, rep.WorstSlackS, rep.WorstEndpoint)
	}
	if rep.WorstSlackS <= 0 {
		t.Errorf("worst hold slack %g should be positive", rep.WorstSlackS)
	}
}

func TestHoldViolationDetected(t *testing.T) {
	// Back-to-back FFs with a direct Q->D connection: only clk-to-Q delay
	// in the path. Shrink it below the hold time by using a strong DFF and
	// checking with an artificially slow... simpler: force the hold window
	// by connecting Q of a fast FF straight to D. The X8 DFF's clk-to-Q is
	// 3·FO1/8 ≈ a few ps at this node — below the 15 ps hold time.
	p, lib := libs(t)
	nl := netlist.New("hold")
	clk := nl.AddNet("clk", 2)
	clk.Clock = true
	cb := nl.AddCell("cb", lib.MustPick(cell.ClkBuf, 4))
	tie := nl.AddCell("tie", lib.MustPick(cell.TieHi, 1))
	tn := nl.AddNet("tn", 0)
	nl.MustPin(tie, "Y", true, 0, tn)
	nl.MustPin(cb, "A", false, cb.Cell.InputCapF, tn)
	nl.MustPin(cb, "Y", true, 0, clk)

	a := nl.AddCell("ffa", lib.MustPick(cell.DFF, 8))
	b := nl.AddCell("ffb", lib.MustPick(cell.DFF, 1))
	nl.MustPin(a, "CK", false, a.Cell.InputCapF, clk)
	nl.MustPin(b, "CK", false, b.Cell.InputCapF, clk)
	q := nl.AddNet("q", 0.2)
	nl.MustPin(a, "Q", true, 0, q)
	nl.MustPin(b, "D", false, b.Cell.InputCapF, q)

	rep, err := AnalyzeHold(p, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Errorf("shift-register path should violate the %gps hold time (worst slack %g)",
			holdTimeS*1e12, rep.WorstSlackS)
	}
}

func TestHoldMinPropagation(t *testing.T) {
	// Two paths to one endpoint: hold analysis must take the SHORT one.
	p, lib := libs(t)
	nl := netlist.New("minpath")
	clk := nl.AddNet("clk", 2)
	clk.Clock = true
	cb := nl.AddCell("cb", lib.MustPick(cell.ClkBuf, 4))
	tie := nl.AddCell("tie", lib.MustPick(cell.TieHi, 1))
	tn := nl.AddNet("tn", 0)
	nl.MustPin(tie, "Y", true, 0, tn)
	nl.MustPin(cb, "A", false, cb.Cell.InputCapF, tn)
	nl.MustPin(cb, "Y", true, 0, clk)

	src := nl.AddCell("src", lib.MustPick(cell.DFF, 1))
	nl.MustPin(src, "CK", false, src.Cell.InputCapF, clk)
	q := nl.AddNet("q", 0.2)
	nl.MustPin(src, "Q", true, 0, q)

	// Long path: 6 inverters; short path: direct.
	sig := q
	for i := 0; i < 6; i++ {
		inv := nl.AddCell("inv", lib.MustPick(cell.Inv, 1))
		nl.MustPin(inv, "A", false, inv.Cell.InputCapF, sig)
		next := nl.AddNet("n", 0.2)
		nl.MustPin(inv, "Y", true, 0, next)
		sig = next
	}
	and := nl.AddCell("and", lib.MustPick(cell.And2, 1))
	nl.MustPin(and, "A", false, and.Cell.InputCapF, sig)
	nl.MustPin(and, "B", false, and.Cell.InputCapF, q) // short leg
	ao := nl.AddNet("ao", 0.2)
	nl.MustPin(and, "Y", true, 0, ao)
	cap := nl.AddCell("cap", lib.MustPick(cell.DFF, 1))
	nl.MustPin(cap, "CK", false, cap.Cell.InputCapF, clk)
	nl.MustPin(cap, "D", false, cap.Cell.InputCapF, ao)

	rep, err := AnalyzeHold(p, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	setup, err := Analyze(p, nl, nil, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Min arrival (hold) must be well below max arrival (setup) at the
	// capture FF: the 6-inverter leg dominates setup, the direct leg hold.
	holdArrival := rep.WorstSlackS + holdTimeS
	setupArrival := setup.CriticalPathS - 2*lib.MustPick(cell.DFF, 1).SetupS
	if holdArrival >= setupArrival {
		t.Errorf("hold arrival %g should be below setup arrival %g", holdArrival, setupArrival)
	}
}

// groupsNetlist builds a small design with in2reg, reg2reg and
// macro2reg endpoints: an input stub into a register, a register through
// three inverters into a sink register, and an RRAM bank read port
// straight into a capture flip-flop.
func groupsNetlist(lib *cell.Library) *netlist.Netlist {
	b := synth.NewBuilder("grp", lib)
	// reg2reg paths.
	d := b.Input("d", 0.2)
	q := b.Register("r", synth.Bus{d}, 0.2)
	sig := q[0]
	for i := 0; i < 3; i++ {
		sig = chainInv(b, sig)
	}
	b.SinkBus("o", synth.Bus{sig})
	// macro2reg path.
	m := &netlist.MacroRef{Kind: "rram", Width: 1000, Height: 1000, AccessLatencyS: 10e-9, PinCapF: 8e-15}
	bank := b.NL.AddMacro("bank", m, tech.TierRRAM)
	rd := b.NL.AddNet("rd", 0.2)
	b.NL.MustPin(bank, "Q0", true, 0, rd)
	ff := b.NL.AddCell("capff", lib.MustPick(cell.DFF, 1))
	b.NL.MustPin(ff, "D", false, ff.Cell.InputCapF, rd)
	b.NL.MustPin(ff, "CK", false, ff.Cell.InputCapF, b.Clk)
	return b.NL
}

func TestGroupEndpoints(t *testing.T) {
	p, lib := libs(t)
	nl := groupsNetlist(lib)
	rep, err := Analyze(p, nl, nil, 50e-9)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := GroupEndpoints(p, nl, nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	byGroup := map[PathGroup]GroupSummary{}
	for _, g := range groups {
		byGroup[g.Group] = g
	}
	if byGroup[GroupRegToReg].Endpoints == 0 {
		t.Error("missing reg2reg endpoints")
	}
	m2r, ok := byGroup[GroupMacroToReg]
	if !ok || m2r.Endpoints == 0 {
		t.Fatal("missing macro2reg endpoints")
	}
	// The macro path carries the 10ns access latency.
	if m2r.WorstArrivalS < 10e-9 {
		t.Errorf("macro2reg worst arrival %g should include the RRAM latency", m2r.WorstArrivalS)
	}
	if _, err := GroupEndpoints(p, nl, nil, nil); err == nil {
		t.Error("nil report should fail")
	}
}

// TestLaunchClassGolden pins GroupEndpoints' summaries (endpoint count,
// worst arrival bits, worst endpoint) and the hold report on seeded
// random DAGs (pre-route HPWL wires), the three-group design and the
// routed systolic block. Both depend on each endpoint's launch class,
// read off the root of its from[] chain; the values were recorded with
// a separate class-propagating pass, so the root lookup is checked
// against an independent implementation. The routed row's worst-arrival
// bits were re-recorded when the router changed from driver stars to
// trees; its group counts and worst endpoints kept their recorded
// values.
func TestLaunchClassGolden(t *testing.T) {
	p, lib := libs(t)
	_, routed, routedWM, _ := routedFixture(t, 2, 2)
	for _, tc := range []struct {
		name   string
		nl     *netlist.Netlist
		wm     *WireModel
		groups []string
		hold   string
	}{
		{"random1", randomTimedNetlist(t, lib, 1), nil,
			[]string{"reg2reg 8 0x3e22e5e7f96ef781 cff2/D"},
			"8 0 0x3e0e20a5f81bca24 cff4/D"},
		{"random2", randomTimedNetlist(t, lib, 2), nil,
			[]string{"reg2reg 8 0x3e25bad184c674e7 cff3/D"},
			"8 0 0x3e09eb5cfee505f0 cff4/D"},
		{"random3", randomTimedNetlist(t, lib, 3), nil,
			[]string{"reg2reg 8 0x3e238d654e96d46e cff6/D"},
			"8 0 0x3e07e37dde7d3e56 cff3/D"},
		{"groups", groupsNetlist(lib), nil,
			[]string{
				"in2reg 1 0x3db059c7d582c6cc r0_5/D",
				"macro2reg 1 0x3e457d4d3b462da6 capff/D",
				"reg2reg 1 0x3dcc38e652e24c4d o0_of_7/D",
			},
			"2 0 0x3dc055979df582ee o0_of_7/D"},
		{"routed", routed, routedWM,
			[]string{
				"in2reg 24 0x3dc830eeb34038e6 cs_pe_r0c1_wr2_320/D",
				"reg2reg 92 0x3e168b7f1c60fcc9 cs_pe_r1c0_pr11_688/D",
			},
			"56 0 0x3dacc71baf0301f0 cs_ps_out_c0_1_of_880/D"},
	} {
		rep, err := Analyze(p, tc.nl, tc.wm, 10e-9)
		if err != nil {
			t.Fatal(err)
		}
		groups, err := GroupEndpoints(p, tc.nl, tc.wm, rep)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, g := range groups {
			got = append(got, fmt.Sprintf("%s %d %#x %s",
				g.Group, g.Endpoints, math.Float64bits(g.WorstArrivalS), g.WorstEndpoint))
		}
		if !reflect.DeepEqual(got, tc.groups) {
			t.Errorf("%s: groups\n got %q\nwant %q", tc.name, got, tc.groups)
		}
		h, err := AnalyzeHold(p, tc.nl, tc.wm)
		if err != nil {
			t.Fatal(err)
		}
		hold := fmt.Sprintf("%d %d %#x %s",
			h.Endpoints, h.Violations, math.Float64bits(h.WorstSlackS), h.WorstEndpoint)
		if hold != tc.hold {
			t.Errorf("%s: hold %q, want %q", tc.name, hold, tc.hold)
		}
	}
}
