package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// HTTP live views: /flows renders the table's current records as JSON
// (top-talkers first, ?n= bounds the count), /stats the telemetry,
// aggregator and any caller-supplied counters. harmlessd mounts these
// on -http; cmd/flowtop is the wire-side equivalent.

// flowJSON is the /flows wire shape of one live flow.
type flowJSON struct {
	InPort  uint32 `json:"in_port"`
	EthSrc  string `json:"eth_src"`
	EthDst  string `json:"eth_dst"`
	EthType string `json:"eth_type"`
	VLAN    uint16 `json:"vlan,omitempty"`
	IPSrc   string `json:"ip_src,omitempty"`
	IPDst   string `json:"ip_dst,omitempty"`
	Proto   uint8  `json:"proto,omitempty"`
	L4Src   uint16 `json:"l4_src,omitempty"`
	L4Dst   uint16 `json:"l4_dst,omitempty"`
	OutPort uint32 `json:"out_port"`
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
	AgeMs   int64  `json:"age_ms"`
	IdleMs  int64  `json:"idle_ms"`
}

func snapshotJSON(s *Record, now int64) flowJSON {
	j := flowJSON{
		InPort:  s.Key.InPort,
		EthSrc:  s.Key.EthSrc.String(),
		EthDst:  s.Key.EthDst.String(),
		EthType: fmt.Sprintf("0x%04x", s.Key.EthType),
		VLAN:    s.Key.VLANID,
		Proto:   s.Key.Proto,
		L4Src:   s.Key.L4Src,
		L4Dst:   s.Key.L4Dst,
		OutPort: s.OutPort,
		Packets: s.Packets,
		Bytes:   s.Bytes,
		AgeMs:   (now - s.First) / 1e6,
		IdleMs:  (now - s.Last) / 1e6,
	}
	if s.Key.EthType == pkt.EtherTypeIPv4 || s.Key.EthType == pkt.EtherTypeIPv6 {
		j.IPSrc = s.Key.IPSrc.String()
		j.IPDst = s.Key.IPDst.String()
	}
	return j
}

// FlowsHandler serves the live flow table, top talkers first.
// Query parameter n bounds the flow count (default 100). Age and idle
// times are computed against clock so that a table fed from virtual
// time renders consistent ages; nil means wall clock.
func FlowsHandler(t *Table, clock netem.Clock) http.Handler {
	if clock == nil {
		clock = netem.RealClock{}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 100
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		snaps := t.Snapshot()
		if len(snaps) > n {
			snaps = snaps[:n]
		}
		now := clock.Now().UnixNano()
		out := struct {
			Flows int        `json:"flows"`
			Shown int        `json:"shown"`
			Top   []flowJSON `json:"top"`
		}{Flows: t.Len(), Shown: len(snaps)}
		for i := range snaps {
			out.Top = append(out.Top, snapshotJSON(&snaps[i], now))
		}
		writeJSON(w, out)
	})
}

// StatsHandler serves the telemetry counters, the aggregator
// counters, and whatever extra point-in-time state the caller
// contributes (cache counters, worker-pool stats, ...). extra may be
// nil.
func StatsHandler(t *Table, a *Aggregator, extra func() map[string]any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		c := t.Counters()
		out := map[string]any{
			"flows_live": t.Len(),
			"telemetry": map[string]uint64{
				"flows_created":  c.FlowsCreated.Load(),
				"flows_expired":  c.FlowsExpired.Load(),
				"flows_evicted":  c.FlowsEvicted.Load(),
				"records_queued": c.RecordsQueued.Load(),
				"records_lost":   c.RecordsLost.Load(),
				"samples_queued": c.SamplesQueued.Load(),
				"samples_lost":   c.SamplesLost.Load(),
				"sweeps":         c.Sweeps.Load(),
			},
		}
		if a != nil {
			s := a.Stats()
			out["aggregator"] = map[string]uint64{
				"drained":       s.Drained,
				"flow_records":  s.FlowRecords,
				"biflows":       s.Biflows,
				"samples":       s.Samples,
				"messages":      s.Messages,
				"export_errors": s.ExportErrors,
			}
		}
		if extra != nil {
			for k, v := range extra() {
				out[k] = v
			}
		}
		writeJSON(w, out)
	})
}

// NewMux mounts the live views on a fresh ServeMux: /flows and
// /stats. Flow ages are rendered on the aggregator's clock when one
// is supplied, keeping the HTTP view on the same timeline as exports.
func NewMux(t *Table, a *Aggregator, extra func() map[string]any) *http.ServeMux {
	var clock netem.Clock
	if a != nil {
		clock = a.Clock()
	}
	mux := http.NewServeMux()
	mux.Handle("/flows", FlowsHandler(t, clock))
	mux.Handle("/stats", StatsHandler(t, a, extra))
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}
