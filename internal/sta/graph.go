package sta

import (
	"m3d/internal/cell"
	"m3d/internal/netlist"
)

// launchClass labels where a timing path starts.
type launchClass int8

const (
	notLaunch   launchClass = iota // combinational: outputs follow inputs
	launchReg                      // flip-flop, launching at clk→Q
	launchMacro                    // macro read port, launching at its access latency
	launchConst                    // tie cell or instance with no connected input
)

func isConstKind(c *cell.Cell) bool {
	return c.Kind == cell.TieHi || c.Kind == cell.TieLo
}

// launchTime is the fixed arrival at a launch instance's outputs. It is
// read per pass: drive upsizing swaps the cell and with it ClkQS.
func launchTime(inst *netlist.Instance) float64 {
	switch {
	case inst.IsMacro():
		return inst.Macro.AccessLatencyS
	case inst.Cell.Sequential:
		return inst.Cell.ClkQS
	}
	return 0
}

// graph is the levelized timing graph of one netlist. The propagation
// order depends on the topology alone, never on delay values, so every
// pass — max (Analyze, AnalyzeBatch), min (AnalyzeHold) and the
// incremental cone update — walks this one structure instead of running
// its own traversal.
type graph struct {
	// order lists every instance the propagation resolves, in Kahn
	// order: the launch instances first, in instance order, then each
	// combinational instance after all of its drivers. Instances behind
	// an undriven input or on a loop are absent; their outputs never
	// get an arrival.
	order []*netlist.Instance
	// class is the launch class per Instance.ID; notLaunch marks
	// combinational instances.
	class []launchClass
	// lvl is the topological level per Instance.ID (0 for launches, one
	// above the deepest driver otherwise); the incremental pass buckets
	// its work by it. maxLvl is the largest level.
	lvl    []int32
	maxLvl int32
	// endpoints are the setup endpoint pins in instance order: the
	// connected data inputs of flip-flops and macros.
	endpoints []*netlist.Pin
}

// newGraph levelizes nl. This is the package's only pending-count
// topological traversal.
func newGraph(nl *netlist.Netlist) *graph {
	n := len(nl.Instances)
	g := &graph{
		order: make([]*netlist.Instance, 0, n),
		class: make([]launchClass, n),
		lvl:   make([]int32, n),
	}
	pending := make([]int32, n) // per instance: unresolved inputs; -1 = in order
	nEnd := 0
	for _, inst := range nl.Instances {
		mac := inst.IsMacro()
		seq := !mac && inst.Cell.Sequential
		for _, pin := range inst.Pins() {
			if !pin.IsOutput && pin.Net != nil && !pin.Net.Clock {
				pending[inst.ID]++
				if seq || mac {
					nEnd++
				}
			}
		}
		switch {
		case mac:
			g.class[inst.ID] = launchMacro
		case seq:
			g.class[inst.ID] = launchReg
		case isConstKind(inst.Cell) || pending[inst.ID] == 0:
			g.class[inst.ID] = launchConst
		}
		if g.class[inst.ID] != notLaunch {
			g.order = append(g.order, inst)
			pending[inst.ID] = -1
		}
	}

	// Launch outputs start paths; launch inputs are endpoints only.
	for qi := 0; qi < len(g.order); qi++ {
		inst := g.order[qi]
		for _, out := range inst.Pins() {
			if !out.IsOutput || out.Net == nil || out.Net.Clock {
				continue
			}
			for _, sink := range out.Net.Sinks {
				sid := sink.Inst.ID
				if pending[sid] < 0 {
					continue
				}
				if l := g.lvl[inst.ID] + 1; l > g.lvl[sid] {
					g.lvl[sid] = l
				}
				pending[sid]--
				if pending[sid] == 0 {
					pending[sid] = -1
					g.order = append(g.order, sink.Inst)
				}
			}
		}
	}
	for _, l := range g.lvl {
		if l > g.maxLvl {
			g.maxLvl = l
		}
	}

	g.endpoints = make([]*netlist.Pin, 0, nEnd)
	for _, inst := range nl.Instances {
		if c := g.class[inst.ID]; c != launchReg && c != launchMacro {
			continue
		}
		for _, pin := range inst.Pins() {
			if !pin.IsOutput && pin.Net != nil && !pin.Net.Clock {
				g.endpoints = append(g.endpoints, pin)
			}
		}
	}
	return g
}

// launchOf returns the launch class of the path the last pass recorded
// in from[] for pin: the class of the instance at the root of the pin's
// chain. A combinational root (an instance with no arriving input)
// launches a constant.
func (t *Timer) launchOf(pin *netlist.Pin) launchClass {
	id := int32(pin.ID)
	for t.from[id] >= 0 {
		id = t.from[id]
	}
	if c := t.g.class[t.nl.PinByID(int(id)).Inst.ID]; c != notLaunch {
		return c
	}
	return launchConst
}
