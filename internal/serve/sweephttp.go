package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"nucasim/internal/sweep"
)

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	if err := decodeBody(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "invalid sweep spec: "+err.Error())
		return
	}
	sw, created, err := s.SubmitSweep(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, submitCode(created), s.SweepStatus(sw))
}

func (s *Server) handleSweepList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Sweeps())
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	writeJSON(w, http.StatusOK, s.SweepStatus(sw))
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.CancelSweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSweepResult serves the committed aggregate artifacts:
// ?artifact=table (default) → table.json, ?artifact=csv → table.csv.
// 409 until the sweep is done; integrity violations quarantine the
// entry and answer 410 through the same downgrade as job artifacts.
func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	sw.mu.Lock()
	state := sw.state
	sw.mu.Unlock()
	if state != SweepDone {
		writeError(w, http.StatusConflict, "sweep is "+string(state)+", result not available")
		return
	}
	var name, contentType string
	switch artifact := r.URL.Query().Get("artifact"); artifact {
	case "", "table":
		name, contentType = sweepKind.marker, "application/json"
	case "csv":
		name, contentType = sweepKind.data, "text/csv"
	default:
		writeError(w, http.StatusBadRequest, "unknown artifact "+strconv.Quote(artifact)+" (want table or csv)")
		return
	}
	data, err := s.store.readVerified(sweepKind, sw.ID, name)
	if err != nil {
		failCorrupt(w, err, func(reason string) { sw.setState(SweepFailed, reason) })
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(data)
}

// handleSweepEvents streams the sweep's lifecycle as NDJSON — one
// "sweep" status line whenever anything about the sweep changes (point
// states included) — until the sweep settles or the client disconnects.
// Point-job state changes bump the job, not the sweep, so the stream
// also re-checks on a short tick.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep")
		return
	}
	var lastStatus string
	streamNDJSON(w, r, 250*time.Millisecond, func(enc *json.Encoder) (<-chan struct{}, bool, error) {
		sw.mu.Lock()
		wait := sw.wait
		sw.mu.Unlock()

		st := s.SweepStatus(sw)
		if line, _ := json.Marshal(st); string(line) != lastStatus {
			lastStatus = string(line)
			if err := enc.Encode(sweepEvent{Type: "sweep", Sweep: &st}); err != nil {
				return nil, false, err
			}
		}
		return wait, st.State != SweepPending, nil
	})
}

// sweepEvent is one NDJSON line on the sweep /events stream.
type sweepEvent struct {
	Type  string       `json:"type"`
	Sweep *SweepStatus `json:"sweep,omitempty"`
}
