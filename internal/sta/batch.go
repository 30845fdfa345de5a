package sta

import (
	"fmt"

	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// BatchTimer prices K process corners with ONE walk of the levelized
// timing graph. The graph order depends only on the netlist topology,
// never on delay values, so K corners that differ only in per-tier delay
// scales share it. Arrival times become a structure-of-arrays slab
// indexed [slot*K + corner]; each arc's corner-independent base delay
// (netDelayParts) is expanded to K scaled delays once per out-pin visit
// and added to the driver's worst-input vector for each sink.
//
// NewBatchTimer compiles the graph once into a flat arc table (see
// batchInst, batchOut, batchEnd), and AnalyzeBatch walks only that
// table: no netlist pointers, WireModel or PDK at pass time. The table
// freezes everything a pass reads — topology, wire RC, drive strengths,
// launch and setup times — so a BatchTimer prices the netlist as it was
// at construction. Build a new one after any netlist edit (drive
// upsizing, rerouting); the Monte-Carlo variation engine
// (internal/vary) times a frozen design and builds its timers per run.
//
// Corner k of one AnalyzeBatch call is bit-for-bit identical to a
// serial Timer pass under SetTierDelayScale(scales[k][:]): the per-arc
// multiply d·scale[tier], the relaxation compare, the >= last-max
// worst-input tie rule and the endpoint > scan are the same operations
// on the same operands in the same order. The Monte-Carlo variation
// engine relies on this to swap K full graph walks for one without
// moving a single output bit.
//
// A BatchTimer is single-goroutine; distinct BatchTimers over the same
// read-only netlist may run concurrently.
type BatchTimer struct {
	kmax int

	// The compiled arc table. insts is the graph order; each instance
	// owns the next run of ins (worst-input scan) and of outs, each out
	// the next run of sinks. Every entry of ins, sinks and ends is an
	// arrival slot: a pin that receives an arrival, numbered in the
	// order the walk first writes it.
	insts []batchInst
	ins   []int32
	outs  []batchOut
	sinks []int32
	ends  []batchEnd

	// Per-pass scratch, reused across passes.
	arr     []float64 // [slot*K + corner] arrival slab, sized for K = kmax
	cols    []float64 // [tier*K + corner] delay scales of the pass
	dk      []float64 // per-corner delay of the arc being relaxed
	worstIn []float64 // per-corner output arrival / worst endpoint scratch
}

// batchInst is one instance of the graph order.
type batchInst struct {
	// launchT is the corner-independent arrival at a launch instance's
	// outputs (ClkQS, macro access latency).
	launchT float64
	launch  bool
	// inEnd and outEnd end the instance's runs of ins and outs; a
	// launch instance has no ins.
	inEnd, outEnd int32
}

// batchOut is one output pin driving a data net: the arc to its sinks.
type batchOut struct {
	d      float64 // nominal driver+wire delay (netDelayParts)
	tier   uint8   // corner scale index when scaled
	scaled bool
	// The out's sinks are sinks[previous sinkEnd : sinkEnd]. The first
	// run, up to firstEnd, reaches slots no earlier arc wrote in the
	// pass; the rest relax slots already written. Which is which depends
	// on the topology alone, so it is fixed here instead of tracked per
	// pass.
	firstEnd, sinkEnd int32
}

// batchEnd is one setup endpoint that receives an arrival.
type batchEnd struct {
	slot  int32
	macro bool    // macro input: no setup term
	setup float64 // flip-flop setup time
}

// NewBatchTimer builds a corner-batched timing engine able to price up
// to maxCorners corners per pass; wm may be nil (pre-route estimates).
// It compiles nl's timing graph with wm's wire delays, and neither is
// read again.
func NewBatchTimer(p *tech.PDK, nl *netlist.Netlist, wm *WireModel, maxCorners int) (*BatchTimer, error) {
	if maxCorners < 1 {
		return nil, fmt.Errorf("sta: batch size must be >= 1, got %d", maxCorners)
	}
	if wm == nil {
		wm = NewWireModel(p, nil)
	}
	bt := &BatchTimer{
		kmax:    maxCorners,
		cols:    make([]float64, int(tech.NumTiers)*maxCorners),
		dk:      make([]float64, maxCorners),
		worstIn: make([]float64, maxCorners),
	}
	slots := bt.compile(newGraph(nl), nl.NumPins(), wm)
	bt.arr = make([]float64, slots*maxCorners)
	return bt, nil
}

// compile flattens g into the arc table and returns the number of
// arrival slots. It replays the pass's seen bookkeeping once: a pin is
// seen after its first arrival write, the worst-input scan skips unseen
// inputs, the first write to a pin assigns and later ones relax, and
// the endpoint scan skips unseen endpoints. Output pins get no slot: an
// out's arrival is its instance's worst-input vector, which only the
// out's own arcs read.
func (bt *BatchTimer) compile(g *graph, numPins int, wm *WireModel) int {
	slot := make([]int32, numPins) // pin ID -> slot+1; 0 = unseen
	n := int32(0)
	var relax []int32
	for _, inst := range g.order {
		bi := batchInst{launch: g.class[inst.ID] != notLaunch}
		if bi.launch {
			bi.launchT = launchTime(inst)
		} else {
			for _, in := range inst.Pins() {
				if !in.IsOutput && in.Net != nil && !in.Net.Clock && slot[in.ID] != 0 {
					bt.ins = append(bt.ins, slot[in.ID]-1)
				}
			}
		}
		for _, out := range inst.Pins() {
			if !out.IsOutput || out.Net == nil || out.Net.Clock {
				continue
			}
			d, tier, scaled := netDelayParts(wm, out.Net)
			relax = relax[:0]
			for _, sink := range out.Net.Sinks {
				if slot[sink.ID] == 0 {
					n++
					slot[sink.ID] = n
					bt.sinks = append(bt.sinks, n-1)
				} else {
					relax = append(relax, slot[sink.ID]-1)
				}
			}
			firstEnd := int32(len(bt.sinks))
			bt.sinks = append(bt.sinks, relax...)
			bt.outs = append(bt.outs, batchOut{
				d: d, tier: uint8(tier), scaled: scaled,
				firstEnd: firstEnd, sinkEnd: int32(len(bt.sinks)),
			})
		}
		bi.inEnd, bi.outEnd = int32(len(bt.ins)), int32(len(bt.outs))
		bt.insts = append(bt.insts, bi)
	}
	for _, pin := range g.endpoints {
		if slot[pin.ID] == 0 {
			continue
		}
		be := batchEnd{slot: slot[pin.ID] - 1, macro: pin.Inst.IsMacro()}
		if !be.macro {
			be.setup = pin.Inst.Cell.SetupS
		}
		bt.ends = append(bt.ends, be)
	}
	return int(n)
}

// MaxCorners returns the batch capacity fixed at construction.
func (bt *BatchTimer) MaxCorners() int { return bt.kmax }

// AnalyzeBatch runs one max-arrival propagation for len(scales) corners
// at once. scales[k] is corner k's per-tier delay multiplier (indexed by
// tech.Tier, the SetTierDelayScale convention); critOut[k] receives the
// corner's critical path in seconds. len(critOut) must equal len(scales)
// and len(scales) must not exceed MaxCorners. Only the critical path is
// produced — no slack, trace or Fmax — which is exactly what Monte-Carlo
// yield consumes per sample.
func (bt *BatchTimer) AnalyzeBatch(scales [][tech.NumTiers]float64, critOut []float64) error {
	K := len(scales)
	if K == 0 {
		return fmt.Errorf("sta: batch analyze needs at least one corner")
	}
	if K > bt.kmax {
		return fmt.Errorf("sta: batch of %d corners exceeds capacity %d", K, bt.kmax)
	}
	if len(critOut) != K {
		return fmt.Errorf("sta: critOut length %d != batch size %d", len(critOut), K)
	}
	if len(bt.ends) == 0 {
		return fmt.Errorf("sta: design has no timing endpoints")
	}

	// Transpose the scales to one K-lane column per tier, so an arc's
	// lane delays read one contiguous row.
	cols := bt.cols[:int(tech.NumTiers)*K]
	for k, sc := range scales {
		for t, v := range sc {
			cols[t*K+k] = v
		}
	}
	arr := bt.arr
	dk, worstIn := bt.dk[:K], bt.worstIn[:K]
	var inLo, outLo, sinkLo int32
	for _, bi := range bt.insts {
		if bi.launch {
			// Launch times are corner-independent: all K lanes carry
			// the same value.
			for k := range worstIn {
				worstIn[k] = bi.launchT
			}
		} else {
			// Worst-input scan: same pin order and the same >= last-max
			// tie rule as Timer.worstInput, one max per corner lane.
			for k := range worstIn {
				worstIn[k] = 0
			}
			for _, in := range bt.ins[inLo:bi.inEnd] {
				row := arr[int(in)*K:][:K]
				w := worstIn[:len(row)]
				for k, a := range row {
					if a >= w[k] {
						w[k] = a
					}
				}
			}
			inLo = bi.inEnd
		}

		// Every output carries the worst-input vector; each arc adds its
		// delay and relaxes its sinks.
		for _, bo := range bt.outs[outLo:bi.outEnd] {
			if bo.scaled {
				col := cols[int(bo.tier)*K:][:len(dk)]
				for k, c := range col {
					dk[k] = bo.d * c
				}
			} else {
				for k := range dk {
					dk[k] = bo.d
				}
			}
			// Timer.Analyze relaxes with `!seen || tSink > arr`; the first
			// write to each slot was resolved at compile time.
			for _, s := range bt.sinks[sinkLo:bo.firstEnd] {
				row := arr[int(s)*K:][:K]
				w, d := worstIn[:len(row)], dk[:len(row)]
				for k := range row {
					row[k] = w[k] + d[k]
				}
			}
			for _, s := range bt.sinks[bo.firstEnd:bo.sinkEnd] {
				row := arr[int(s)*K:][:K]
				w, d := worstIn[:len(row)], dk[:len(row)]
				for k := range row {
					if tSink := w[k] + d[k]; tSink > row[k] {
						row[k] = tSink
					}
				}
			}
			sinkLo = bo.sinkEnd
		}
		outLo = bi.outEnd
	}

	// Endpoint scan: DFF D pins (+ setup), macro input pins — the same
	// order and strict-> compare as Timer.buildReport, minus the trace.
	worst := worstIn
	for k := range worst {
		worst[k] = 0
	}
	for _, be := range bt.ends {
		row := arr[int(be.slot)*K:][:K]
		if !be.macro {
			for k, a := range row {
				if tEnd := a + be.setup; tEnd > worst[k] {
					worst[k] = tEnd
				}
			}
		} else {
			for k, a := range row {
				if a > worst[k] {
					worst[k] = a
				}
			}
		}
	}
	copy(critOut, worst)
	return nil
}
