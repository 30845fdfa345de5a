package sta

import (
	"fmt"

	"m3d/internal/netlist"
)

// Incremental STA. After a full Analyze, the arr/seen/from scratch holds
// a complete max-arrival solution. A drive upsize changes only the delay
// of the nets the changed instance drives (and, for a sequential cell,
// its clk→Q launch time) — the wire RC and the sink pin capacitances are
// position- and topology-derived and do not move. AnalyzeIncremental
// therefore re-propagates only the fanout cones of the changed drivers:
//
//   - Seed: for every changed instance, recompute the delay of its
//     driven nets (and, defensively, its fanin nets) and rewrite the
//     sink arrivals; sequential changed cells first refresh their launch
//     arrivals (ClkQS differs across drive variants).
//   - Propagate: sink instances whose arrival moved are enqueued into
//     buckets by their level in the shared timing graph. Processing
//     ascending levels visits each instance at most once, because a
//     sink's level is strictly above its driver's; the per-instance
//     recomputation is Analyze's own worst-input scan (worstInput),
//     including the `>=` last-max tie rule, so from[] links match a
//     full pass exactly.
//   - Prune: an instance whose outputs did not move propagates nothing.
//
// Exactness (not just approximate equality): every sink pin arrival has
// a single definition — driver output arrival plus one net delay — and
// the instance-level max over identical float64 inputs is
// order-independent, so the incremental result is bit-identical to a
// full re-analysis. The differential tests in incremental_test.go pin
// this after every optimize round.
//
// Invalidation rule: a pass that repurposes the shared scratch for a
// different propagation (AnalyzeHold's min-arrival pass) or changes the
// corner (SetTierDelayScale) clears t.valid, and the next incremental
// call silently falls back to a full Analyze.

// AnalyzeIncremental updates the timing solution after the given
// instances changed cells (drive upsizing) and returns a report
// identical to a fresh Analyze. It requires a prior full Analyze on the
// current scratch; without one it falls back to Analyze.
func (t *Timer) AnalyzeIncremental(targetPeriodS float64, changed []*netlist.Instance) (*Report, error) {
	if targetPeriodS <= 0 {
		return nil, fmt.Errorf("sta: target period must be positive, got %g", targetPeriodS)
	}
	if !t.valid || t.forceFull {
		return t.Analyze(targetPeriodS)
	}
	if t.inQ == nil {
		t.inQ = make([]uint32, len(t.nl.Instances))
		t.netEp = make([]uint32, len(t.nl.Nets))
		t.buckets = make([][]*netlist.Instance, t.g.maxLvl+1)
	}
	t.stats.IncrementalPasses++
	arr, seen, from := t.arr, t.seen, t.from
	netDelay := makeNetDelay(t.wm, t.tierScale)

	t.qEpoch++
	if t.qEpoch == 0 {
		clear(t.inQ)
		t.qEpoch = 1
	}
	t.netEpoch++
	if t.netEpoch == 0 {
		clear(t.netEp)
		t.netEpoch = 1
	}
	for i := range t.buckets {
		t.buckets[i] = t.buckets[i][:0]
	}
	maxUsed := int32(-1)

	enqueue := func(inst *netlist.Instance) {
		id := inst.ID
		if t.inQ[id] == t.qEpoch {
			return
		}
		// Launch instances own their output arrivals; unresolved
		// instances (outputs never seen by the full pass) stay untouched,
		// exactly as a full re-analysis would leave them.
		if t.g.class[id] != notLaunch {
			return
		}
		resolved := false
		for _, op := range inst.Pins() {
			if op.IsOutput {
				resolved = seen[op.ID]
				break
			}
		}
		if !resolved {
			return
		}
		t.inQ[id] = t.qEpoch
		l := t.g.lvl[id]
		t.buckets[l] = append(t.buckets[l], inst)
		if l > maxUsed {
			maxUsed = l
		}
	}

	seedNet := func(n *netlist.Net) {
		if n == nil || n.Clock || t.netEp[n.ID] == t.netEpoch {
			return
		}
		t.netEp[n.ID] = t.netEpoch
		drv := n.Driver
		if drv == nil || !seen[drv.ID] {
			return
		}
		d := netDelay(n)
		tSink := arr[drv.ID] + d
		for _, sink := range n.Sinks {
			if !seen[sink.ID] {
				continue
			}
			if tSink != arr[sink.ID] {
				arr[sink.ID] = tSink
				from[sink.ID] = int32(drv.ID)
				enqueue(sink.Inst)
			}
		}
	}

	// Launch refresh first: a changed sequential cell launches at its new
	// ClkQS, and the seeds below must read the refreshed arrivals.
	for _, inst := range changed {
		if t.g.class[inst.ID] != launchReg {
			continue
		}
		launchT := inst.Cell.ClkQS
		for _, op := range inst.Pins() {
			if op.IsOutput && seen[op.ID] {
				arr[op.ID] = launchT
			}
		}
	}
	for _, inst := range changed {
		for _, pin := range inst.Pins() {
			seedNet(pin.Net)
		}
	}

	recomputed := 0
	for l := int32(0); l <= maxUsed; l++ {
		for qi := 0; qi < len(t.buckets[l]); qi++ {
			inst := t.buckets[l][qi]
			recomputed++
			worstIn, src := t.worstInput(inst)
			moved := false
			for _, op := range inst.Pins() {
				if !op.IsOutput || !seen[op.ID] {
					continue
				}
				if arr[op.ID] != worstIn {
					arr[op.ID] = worstIn
					moved = true
				}
				from[op.ID] = src
			}
			if !moved {
				continue
			}
			for _, op := range inst.Pins() {
				if !op.IsOutput || op.Net == nil || op.Net.Clock || !seen[op.ID] {
					continue
				}
				d := netDelay(op.Net)
				tSink := arr[op.ID] + d
				for _, sink := range op.Net.Sinks {
					if !seen[sink.ID] {
						continue
					}
					if tSink != arr[sink.ID] {
						arr[sink.ID] = tSink
						from[sink.ID] = int32(op.ID)
						enqueue(sink.Inst)
					}
				}
			}
		}
	}
	t.stats.RecomputedInsts += recomputed
	t.stats.SkippedInsts += len(t.nl.Instances) - recomputed
	return t.buildReport(targetPeriodS)
}
