package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"m3d/internal/flow"
	"m3d/internal/macro"
)

// Upper bounds on the design one flow request may ask for, so that a
// single /v1/flow, /v1/yield, job or batch item cannot demand unbounded
// work. Each admits the paper's case study (16×16 arrays, 8 CS, 64 MB
// RRAM, the default 4 Mbit global SRAM); the array side is capped at the
// paper's, and the others leave headroom for exploration.
const (
	maxFlowArraySide      = 16
	maxFlowNumCS          = 16
	maxFlowBanks          = 64
	maxFlowRRAMCapMB      = 256
	maxFlowGlobalSRAMBits = 32 << 20
)

// FlowRequest is the POST /v1/flow body: one RTL-to-GDS run, evaluated
// through flow.RunContext (m3d.RunFlowContext) under the request
// deadline. Zero fields take the SoCSpec defaults (paper scale — pass
// small arrays for interactive latency). Sizes above the per-request
// bounds noted on each field fail with 400 (errs.ErrBadSpec).
type FlowRequest struct {
	// Style is "2D" (Si access FETs) or "M3D" (CNFET access FETs over
	// logic); empty selects "2D".
	Style string `json:"style,omitempty"`
	// NumCS is at most 16 (maxFlowNumCS).
	NumCS int `json:"num_cs,omitempty"`
	// ArrayRows and ArrayCols are at most 16 (maxFlowArraySide).
	ArrayRows int `json:"array_rows,omitempty"`
	ArrayCols int `json:"array_cols,omitempty"`
	// RRAMCapMB is at most 256 (maxFlowRRAMCapMB).
	RRAMCapMB int `json:"rram_cap_mb,omitempty"`
	// Banks is at most 64 (maxFlowBanks).
	Banks int `json:"banks,omitempty"`
	// GlobalSRAMBits is at most 32 Mbit (maxFlowGlobalSRAMBits).
	GlobalSRAMBits int64   `json:"global_sram_bits,omitempty"`
	TargetClockHz  float64 `json:"target_clock_hz,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	FoldLogic      bool    `json:"fold_logic,omitempty"`
	RunCTS         bool    `json:"run_cts,omitempty"`
	// ThermalCheck applies the Eq. 17 sign-off to the run's result;
	// violations fail with 422 (errs.ErrThermalLimit). MaxTempRiseK ≤ 0
	// uses the PDK budget.
	ThermalCheck bool    `json:"thermal_check,omitempty"`
	MaxTempRiseK float64 `json:"max_temp_rise_k,omitempty"`
}

// FlowResponse is the POST /v1/flow reply: the post-route report's
// headline numbers.
type FlowResponse struct {
	Style         string  `json:"style"`
	NumCS         int     `json:"num_cs"`
	Cells         int     `json:"cells"`
	Macros        int     `json:"macros"`
	HPWLNM        int64   `json:"hpwl_nm"`
	RoutedWLNM    int64   `json:"routed_wl_nm"`
	Vias          int     `json:"vias"`
	ILVs          int     `json:"ilvs"`
	FmaxHz        float64 `json:"fmax_hz"`
	TimingMet     bool    `json:"timing_met"`
	FootprintMM2  float64 `json:"footprint_mm2"`
	TotalPowerW   float64 `json:"total_power_w"`
	LeakagePowerW float64 `json:"leakage_power_w"`
}

// spec derives the validated flow spec of the request; violations match
// errs.ErrBadSpec.
func (q *FlowRequest) spec() (flow.SoCSpec, error) {
	spec := flow.SoCSpec{
		NumCS:          q.NumCS,
		ArrayRows:      q.ArrayRows,
		ArrayCols:      q.ArrayCols,
		RRAMCapBits:    int64(q.RRAMCapMB) << 23,
		Banks:          q.Banks,
		GlobalSRAMBits: q.GlobalSRAMBits,
		TargetClockHz:  q.TargetClockHz,
		Seed:           q.Seed,
		FoldLogic:      q.FoldLogic,
		RunCTS:         q.RunCTS,
	}
	switch q.Style {
	case "", macro.Style2D.String():
		spec.Style = macro.Style2D
	case macro.Style3D.String():
		spec.Style = macro.Style3D
	default:
		return spec, badSpec("unknown style %q (want %q or %q)",
			q.Style, macro.Style2D, macro.Style3D)
	}
	switch {
	case q.RRAMCapMB < 0 || q.RRAMCapMB > maxFlowRRAMCapMB:
		return spec, badSpec("rram_cap_mb %d outside [0, %d]", q.RRAMCapMB, maxFlowRRAMCapMB)
	case q.NumCS > maxFlowNumCS:
		return spec, badSpec("num_cs %d exceeds the per-request limit %d", q.NumCS, maxFlowNumCS)
	case q.ArrayRows > maxFlowArraySide || q.ArrayCols > maxFlowArraySide:
		return spec, badSpec("array %dx%d exceeds the per-request limit %dx%d",
			q.ArrayRows, q.ArrayCols, maxFlowArraySide, maxFlowArraySide)
	case q.Banks > maxFlowBanks:
		return spec, badSpec("banks %d exceeds the per-request limit %d", q.Banks, maxFlowBanks)
	case q.GlobalSRAMBits > maxFlowGlobalSRAMBits:
		return spec, badSpec("global_sram_bits %d exceeds the per-request limit %d",
			q.GlobalSRAMBits, maxFlowGlobalSRAMBits)
	case !q.ThermalCheck && q.MaxTempRiseK != 0:
		return spec, badSpec("max_temp_rise_k needs thermal_check")
	}
	return spec, spec.Validate()
}

// validate checks the request shape through the spec derivation — the
// decodeRequest contract shared with the other endpoints.
func (q *FlowRequest) validate() error {
	_, err := q.spec()
	return err
}

// runFlow evaluates one request's flow and applies its thermal check to
// the result; /v1/flow and the flow job's eval stage share it.
func (s *Server) runFlow(ctx context.Context, q *FlowRequest) (*flow.Result, error) {
	spec, err := q.spec()
	if err != nil {
		return nil, err
	}
	s.reg.Counter("serve.flow.evals").Add(1)
	res, err := flow.RunContext(ctx, s.pdk, spec, s.evalOptions(ctx)...)
	if err != nil {
		return nil, err
	}
	if q.ThermalCheck {
		if err := res.CheckThermal(q.MaxTempRiseK); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// key is the coalescing identity of a flow request (canonical JSON).
func (q *FlowRequest) key() string {
	b, err := json.Marshal(q)
	if err != nil {
		return fmt.Sprintf("unkeyable:%p", q)
	}
	return "flow:" + string(b)
}

func (s *Server) handleFlow(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	req, err := decodeRequest[FlowRequest](r.Body)
	if err != nil {
		return err
	}
	resp, err := s.flowCached(ctx, req)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, resp)
}

// flowCached validates one decoded request and evaluates it through the
// coalescing cache; /v1/flow bodies and /v1/batch flow items share this
// path.
func (s *Server) flowCached(ctx context.Context, req *FlowRequest) (*FlowResponse, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	key := req.key()
	return coalesce(ctx, s, &s.flows, key, "serve.memo", func() (*FlowResponse, error) {
		// Fleet sharding: forward to the key's owner, local fallback on
		// failure (see peers.go).
		if out, handled, err := peerFetch[FlowResponse](ctx, s.peers, "/v1/flow", key, peerBody(key, "flow:")); handled {
			return out, err
		}
		res, err := s.runFlow(ctx, req)
		if err != nil {
			return nil, err
		}
		return flowResponseOf(res), nil
	})
}
