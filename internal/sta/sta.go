// Package sta implements static timing analysis over a placed-and-routed
// netlist: lumped-RC wire delays derived from the global routes (Elmore
// approximation), NLDM-style cell delays from the library characterization,
// topological arrival-time propagation, setup checks at every flip-flop,
// and an achieved-frequency report. A post-route drive optimization pass
// (the flow's "post-route optimization to meet power and timing") upsizes
// drivers on failing paths.
package sta

import (
	"fmt"
	"sort"

	"m3d/internal/netlist"
	"m3d/internal/route"
	"m3d/internal/tech"
)

// WireModel converts a net into a lumped resistance/capacitance pair. When
// routes are available it sums segment RC per layer plus via and ILV
// parasitics; otherwise it estimates from HPWL with average lower-metal RC.
type WireModel struct {
	p      *tech.PDK
	routes *route.Result
	layers []tech.Layer
	// fallback per-DBU parasitics.
	rPerDBU, cPerDBU float64

	// Per-net RC cache over the dense Net.ID space, filled lazily. Only
	// nets with committed routes are cached: their segment walk is a pure
	// function of the static routing result, while the HPWL fallback
	// tracks live pin positions and must stay uncached. The cache makes a
	// WireModel single-goroutine (like the Timer that owns it).
	rcR, rcC []float64
	rcOK     []bool
}

// NewWireModel builds a wire model; routes may be nil (pre-route estimate).
func NewWireModel(p *tech.PDK, routes *route.Result) *WireModel {
	layers := p.RoutingLayers()
	// Average of M1/M2 for the pre-route estimate.
	r := (layers[0].ROhmPerUm + layers[1].ROhmPerUm) / 2 / 1000.0
	c := (layers[0].CfFPerUm + layers[1].CfFPerUm) / 2 / 1000.0 * 1e-15
	return &WireModel{p: p, routes: routes, layers: layers, rPerDBU: r, cPerDBU: c}
}

// NetRC returns the lumped wire resistance (ohm) and capacitance (F) of n.
func (w *WireModel) NetRC(n *netlist.Net) (rOhm, cF float64) {
	if w.routes != nil {
		if n.ID < len(w.rcOK) && w.rcOK[n.ID] {
			return w.rcR[n.ID], w.rcC[n.ID]
		}
		if nr, ok := w.routes.Routes[n]; ok && len(nr.Segs) > 0 {
			for _, s := range nr.Segs {
				L := w.layers[s.LayerIdx]
				lenDBU := float64(s.A.ManhattanDist(s.B))
				rOhm += L.ROhmPerUm * lenDBU / 1000.0
				cF += L.CfFPerUm * lenDBU / 1000.0 * 1e-15
			}
			rOhm += float64(nr.Vias) * w.p.ILVResistanceOhm / 4
			cF += float64(nr.Vias) * w.p.ILVCapF / 4
			rOhm += float64(nr.ILVs) * w.p.ILVResistanceOhm
			cF += float64(nr.ILVs) * w.p.ILVCapF
			if n.ID >= len(w.rcOK) {
				grown := n.ID + 1
				if grown < 2*len(w.rcOK) {
					grown = 2 * len(w.rcOK)
				}
				w.rcR = append(w.rcR, make([]float64, grown-len(w.rcR))...)
				w.rcC = append(w.rcC, make([]float64, grown-len(w.rcC))...)
				w.rcOK = append(w.rcOK, make([]bool, grown-len(w.rcOK))...)
			}
			w.rcR[n.ID], w.rcC[n.ID] = rOhm, cF
			w.rcOK[n.ID] = true
			return rOhm, cF
		}
	}
	wl := float64(n.HPWL())
	return w.rPerDBU * wl, w.cPerDBU * wl
}

// PathPoint is one pin on the critical path.
type PathPoint struct {
	Inst    string
	Pin     string
	Arrival float64
}

// Report is the STA result.
type Report struct {
	// CriticalPathS is the worst launch-to-capture delay including setup.
	CriticalPathS float64
	// FmaxHz is 1 / CriticalPathS.
	FmaxHz float64
	// WorstSlackS is slack at the target period (negative = violated).
	WorstSlackS float64
	// TargetPeriodS echoes the constraint.
	TargetPeriodS float64
	// Endpoints is the number of timing endpoints checked.
	Endpoints int
	// CriticalPath lists the pins of the worst path, launch to capture.
	CriticalPath []PathPoint
}

// Met reports whether the target period is met.
func (r *Report) Met() bool { return r.WorstSlackS >= 0 }

// Timer runs repeated timing passes over one netlist with slice-indexed
// bookkeeping: arrival times and predecessor links are arrays over the
// dense Pin.ID space, and the levelized timing graph (graph.go) is built
// once at construction and walked by every pass. This lets
// OptimizeDrives rerun analysis each round without rebuilding anything.
//
// A Timer is single-goroutine; the netlist topology (instances, pins,
// nets) must not change between passes. Cell pointer swaps (drive
// upsizing) are fine — cell-dependent delays are read during the pass.
type Timer struct {
	p  *tech.PDK
	nl *netlist.Netlist
	wm *WireModel
	g  *graph

	// Per-pass scratch, reused across passes.
	arr  []float64 // per pin: arrival time
	seen []bool    // per pin: arrival computed
	from []int32   // per pin: predecessor Pin.ID, -1 = path root (stale where !seen)

	// Incremental-analysis state (see incremental.go). valid marks the
	// arr/seen/from scratch as holding a complete max-arrival solution;
	// AnalyzeHold repurposes the scratch for min arrivals and clears it,
	// which forces the next AnalyzeIncremental to fall back to a full
	// Analyze.
	valid bool
	// forceFull makes AnalyzeIncremental delegate to Analyze — the
	// differential tests use it to run the full-analysis oracle through
	// the exact OptimizeDrives code path.
	forceFull bool
	// buckets, inQ and netEp are the incremental pass's level-ordered
	// work queue and epoch-stamped dedupe sets, allocated on first use.
	buckets  [][]*netlist.Instance
	inQ      []uint32
	qEpoch   uint32
	netEp    []uint32
	netEpoch uint32

	// tierScale, when non-nil, multiplies every driven-arc delay by the
	// driver tier's entry (indexed by tech.Tier) — the per-sample corner
	// hook the Monte-Carlo variation engine (internal/vary) drives. nil
	// (the default) is nominal timing.
	tierScale []float64

	stats Stats
}

// Stats counts the Timer's analysis work since construction: how many
// full propagations ran versus incremental ones, and how much of the
// instance graph the incremental passes actually re-evaluated.
type Stats struct {
	// FullPasses counts complete max-arrival propagations (Analyze).
	FullPasses int
	// IncrementalPasses counts cone-only re-propagations.
	IncrementalPasses int
	// RecomputedInsts is the total instances re-evaluated across all
	// incremental passes.
	RecomputedInsts int
	// SkippedInsts is the total instances incremental passes did not
	// have to touch (full-pass equivalent work avoided).
	SkippedInsts int
}

// Stats returns the Timer's accumulated work counters.
func (t *Timer) Stats() Stats { return t.stats }

// SetTierDelayScale installs per-tier multiplicative delay scales,
// indexed by tech.Tier (so scale[tech.TierCNFET] stretches every
// CNFET-driven arc). Passing nil restores nominal timing. The scale is
// copied, and the cached arrival solution is invalidated so the next
// AnalyzeIncremental falls back to a full pass under the new corner.
// An all-ones scale produces bit-for-bit nominal results.
func (t *Timer) SetTierDelayScale(scale []float64) {
	if scale == nil {
		t.tierScale = nil
	} else {
		t.tierScale = append(t.tierScale[:0], scale...)
	}
	t.valid = false
}

// NewTimer builds a reusable timing engine for the netlist; wm may be
// nil (pre-route estimates).
func NewTimer(p *tech.PDK, nl *netlist.Netlist, wm *WireModel) *Timer {
	if wm == nil {
		wm = NewWireModel(p, nil)
	}
	return &Timer{
		p: p, nl: nl, wm: wm,
		g:    newGraph(nl),
		arr:  make([]float64, nl.NumPins()),
		seen: make([]bool, nl.NumPins()),
		from: make([]int32, nl.NumPins()),
	}
}

// Analyze runs STA at the given target clock period.
func Analyze(p *tech.PDK, nl *netlist.Netlist, wm *WireModel, targetPeriodS float64) (*Report, error) {
	return NewTimer(p, nl, wm).Analyze(targetPeriodS)
}

// Analyze runs max-arrival STA at the given target clock period, reusing
// the Timer's graph and scratch.
func (t *Timer) Analyze(targetPeriodS float64) (*Report, error) {
	if targetPeriodS <= 0 {
		return nil, fmt.Errorf("sta: target period must be positive, got %g", targetPeriodS)
	}
	t.propagateMax()
	t.valid = true
	t.stats.FullPasses++
	return t.buildReport(targetPeriodS)
}

// propagateMax is the max kernel: it walks the graph order and leaves
// the latest arrival and its predecessor at every reachable pin.
func (t *Timer) propagateMax() {
	clear(t.seen)
	arr, seen, from := t.arr, t.seen, t.from
	netDelay := makeNetDelay(t.wm, t.tierScale)
	for _, inst := range t.g.order {
		tOut, src := 0.0, int32(-1)
		if t.g.class[inst.ID] != notLaunch {
			tOut = launchTime(inst)
		} else {
			// The cell's intrinsic and drive delay are charged on the
			// output net arc (netDelay), so the output pin launches at
			// the worst input arrival.
			tOut, src = t.worstInput(inst)
		}
		t.setOutputs(inst, tOut, src)
		for _, out := range inst.Pins() {
			if !out.IsOutput || out.Net == nil || out.Net.Clock {
				continue
			}
			tSink := tOut + netDelay(out.Net)
			for _, sink := range out.Net.Sinks {
				if !seen[sink.ID] || tSink > arr[sink.ID] {
					arr[sink.ID] = tSink
					seen[sink.ID] = true
					from[sink.ID] = int32(out.ID)
				}
			}
		}
	}
}

// worstInput returns the latest arrival over inst's data inputs and the
// pin it arrives on (-1 if none has arrived). `>=` keeps the last
// maximum, so ties break toward the later pin; the full and incremental
// passes share this scan, which keeps their from[] links identical.
func (t *Timer) worstInput(inst *netlist.Instance) (float64, int32) {
	worst, src := 0.0, int32(-1)
	for _, in := range inst.Pins() {
		if in.IsOutput || in.Net == nil || in.Net.Clock {
			continue
		}
		if t.seen[in.ID] && t.arr[in.ID] >= worst {
			worst, src = t.arr[in.ID], int32(in.ID)
		}
	}
	return worst, src
}

// setOutputs gives every output pin of inst the arrival tOut, reached
// from pin src (-1 for a path root).
func (t *Timer) setOutputs(inst *netlist.Instance, tOut float64, src int32) {
	for _, op := range inst.Pins() {
		if op.IsOutput {
			t.arr[op.ID] = tOut
			t.seen[op.ID] = true
			t.from[op.ID] = src
		}
	}
}

// buildReport scans the timing endpoints and traces the critical path
// over the arr/seen/from scratch. Analyze and AnalyzeIncremental share
// it, so equal arrival state yields byte-identical reports.
func (t *Timer) buildReport(targetPeriodS float64) (*Report, error) {
	nl := t.nl
	arr, seen, from := t.arr, t.seen, t.from

	// Endpoints: DFF D pins (+ setup), macro input pins.
	rep := &Report{TargetPeriodS: targetPeriodS}
	var worst float64
	var worstPin *netlist.Pin
	for _, pin := range t.g.endpoints {
		if !seen[pin.ID] {
			continue
		}
		tEnd := arr[pin.ID]
		if !pin.Inst.IsMacro() {
			tEnd += pin.Inst.Cell.SetupS
		}
		rep.Endpoints++
		if tEnd > worst {
			worst = tEnd
			worstPin = pin
		}
	}
	if rep.Endpoints == 0 {
		return nil, fmt.Errorf("sta: design has no timing endpoints")
	}
	rep.CriticalPathS = worst
	if worst > 0 {
		rep.FmaxHz = 1 / worst
	}
	rep.WorstSlackS = targetPeriodS - worst

	// Trace the critical path.
	if worstPin != nil {
		for id := int32(worstPin.ID); id >= 0; id = from[id] {
			pin := nl.PinByID(int(id))
			rep.CriticalPath = append(rep.CriticalPath, PathPoint{
				Inst: pin.Inst.Name, Pin: pin.Name, Arrival: arr[id],
			})
			if len(rep.CriticalPath) > 10000 {
				break
			}
		}
	}
	// Reverse to launch-to-capture order.
	sort.SliceStable(rep.CriticalPath, func(i, j int) bool {
		return rep.CriticalPath[i].Arrival < rep.CriticalPath[j].Arrival
	})
	return rep, nil
}
