package sta

import (
	"fmt"

	"m3d/internal/netlist"
	"m3d/internal/tech"
)

// BatchTimer prices K process corners with ONE walk of the levelized
// timing graph. The graph order depends only on the netlist topology,
// never on delay values, so K corners that differ only in per-tier delay
// scales share it and the per-pin seen flags. Arrival times become a structure-of-arrays
// slab indexed [pin*K + corner]; each arc's corner-independent base
// delay (netDelayParts) is expanded to K scaled delays once per out-pin
// visit and applied inside the shared worst-input scan.
//
// Corner k of one AnalyzeBatch call is bit-for-bit identical to a
// serial Timer pass under SetTierDelayScale(scales[k][:]): the per-arc
// multiply d·scale[tier], the relaxation compare, the >= last-max
// worst-input tie rule and the endpoint > scan are the same operations
// on the same operands in the same order. The Monte-Carlo variation
// engine (internal/vary) relies on this to swap K full graph walks for
// one without moving a single output bit.
//
// Like Timer, a BatchTimer is single-goroutine and the netlist topology
// must not change between passes; distinct BatchTimers over the same
// read-only netlist may run concurrently (each owns its WireModel).
type BatchTimer struct {
	p  *tech.PDK
	nl *netlist.Netlist
	wm *WireModel

	kmax int
	g    *graph

	// Per-pass scratch, reused across passes.
	arr     []float64 // [pin*K + corner] arrival slab, K = kmax
	seen    []bool    // per pin, shared by all corners
	dk      []float64 // per-corner delay of the arc being relaxed
	worstIn []float64 // per-corner output arrival / worst endpoint scratch
}

// NewBatchTimer builds a corner-batched timing engine able to price up
// to maxCorners corners per pass; wm may be nil (pre-route estimates).
func NewBatchTimer(p *tech.PDK, nl *netlist.Netlist, wm *WireModel, maxCorners int) (*BatchTimer, error) {
	if maxCorners < 1 {
		return nil, fmt.Errorf("sta: batch size must be >= 1, got %d", maxCorners)
	}
	if wm == nil {
		wm = NewWireModel(p, nil)
	}
	return &BatchTimer{
		p: p, nl: nl, wm: wm,
		kmax:    maxCorners,
		g:       newGraph(nl),
		arr:     make([]float64, nl.NumPins()*maxCorners),
		seen:    make([]bool, nl.NumPins()),
		dk:      make([]float64, maxCorners),
		worstIn: make([]float64, maxCorners),
	}, nil
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

	clear(bt.seen)
	arr, seen := bt.arr, bt.seen
	dk, worstIn := bt.dk[:K], bt.worstIn[:K]

	for _, inst := range bt.g.order {
		if bt.g.class[inst.ID] != notLaunch {
			// Launch times (ClkQS, macro access latency) are
			// corner-independent: all K lanes carry the same value.
			launchT := launchTime(inst)
			for k := 0; k < K; k++ {
				worstIn[k] = launchT
			}
		} else {
			// Worst-input scan: same pin order and the same >= last-max
			// tie rule as Timer.worstInput, one max per corner lane.
			for k := 0; k < K; k++ {
				worstIn[k] = 0
			}
			for _, in := range inst.Pins() {
				if in.IsOutput || in.Net == nil || in.Net.Clock || !seen[in.ID] {
					continue
				}
				inBase := in.ID * K
				for k := 0; k < K; k++ {
					if arr[inBase+k] >= worstIn[k] {
						worstIn[k] = arr[inBase+k]
					}
				}
			}
		}
		for _, op := range inst.Pins() {
			if op.IsOutput {
				copy(arr[op.ID*K:op.ID*K+K], worstIn)
				seen[op.ID] = true
			}
		}

		for _, out := range inst.Pins() {
			if !out.IsOutput || out.Net == nil || out.Net.Clock {
				continue
			}
			outBase := out.ID * K
			d, tier, scaled := netDelayParts(bt.wm, out.Net)
			if scaled {
				for k := 0; k < K; k++ {
					dk[k] = d * scales[k][tier]
				}
			} else {
				for k := 0; k < K; k++ {
					dk[k] = d
				}
			}
			for _, sink := range out.Net.Sinks {
				sinkBase := sink.ID * K
				// Timer.Analyze relaxes with `!seen || tSink > arr`; the
				// seen flag flips identically across corners, so test it
				// once and run the value compare per lane.
				if !seen[sink.ID] {
					for k := 0; k < K; k++ {
						arr[sinkBase+k] = arr[outBase+k] + dk[k]
					}
					seen[sink.ID] = true
				} else {
					for k := 0; k < K; k++ {
						tSink := arr[outBase+k] + dk[k]
						if tSink > arr[sinkBase+k] {
							arr[sinkBase+k] = tSink
						}
					}
				}
			}
		}
	}

	// Endpoint scan: DFF D pins (+ setup), macro input pins — the same
	// order and strict-> compare as Timer.buildReport, minus the trace.
	worst := worstIn
	for k := 0; k < K; k++ {
		worst[k] = 0
	}
	endpoints := 0
	for _, pin := range bt.g.endpoints {
		if !seen[pin.ID] {
			continue
		}
		endpoints++
		base := pin.ID * K
		if !pin.Inst.IsMacro() {
			setup := pin.Inst.Cell.SetupS
			for k := 0; k < K; k++ {
				if tEnd := arr[base+k] + setup; tEnd > worst[k] {
					worst[k] = tEnd
				}
			}
		} else {
			for k := 0; k < K; k++ {
				if tEnd := arr[base+k]; tEnd > worst[k] {
					worst[k] = tEnd
				}
			}
		}
	}
	if endpoints == 0 {
		return fmt.Errorf("sta: design has no timing endpoints")
	}
	copy(critOut, worst)
	return nil
}
