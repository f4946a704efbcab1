package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"nucasim/internal/telemetry"
)

// maxRequestBody bounds POST /v1/jobs and /v1/sweeps payloads; specs
// are a few hundred bytes, so 1 MiB is generous.
const maxRequestBody = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a job (202 queued, 200 cached/duplicate,
//	                            400 invalid, 429 queue full, 503 draining)
//	GET    /v1/jobs/{id}        status + queue position
//	GET    /v1/jobs/{id}/events NDJSON stream of status/progress/epoch events;
//	                            a done job sends its final status only
//	GET    /v1/jobs/{id}/result cached result.json (?artifact=epochs → epoch.csv)
//	GET    /v1/jobs/{id}/spans  wall-clock span trace (Perfetto-loadable JSON):
//	                            a live render until the job is done, then
//	                            spans.json (404 when that artifact is absent)
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	POST   /v1/sweeps           submit a parameter sweep (202 accepted,
//	                            200 cached/duplicate, 400 malformed spec or
//	                            grid over the point cap, 503 draining)
//	GET    /v1/sweeps           list every known sweep
//	GET    /v1/sweeps/{id}        sweep status + per-point job states
//	GET    /v1/sweeps/{id}/events NDJSON stream of sweep status updates
//	GET    /v1/sweeps/{id}/result aggregate table.json (?artifact=csv → table.csv)
//	DELETE /v1/sweeps/{id}        cancel the sweep's pending points
//	GET    /healthz             liveness
//	GET    /readyz              readiness (503 once draining)
//	GET    /metrics             text exposition of server + simulator metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/spans", s.handleSpans)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleSweepResult)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.writeMetrics(w)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// decodeBody decodes a submit body of at most maxRequestBody bytes into
// v: exactly one JSON value, no unknown fields, nothing after it.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	j, created, err := s.Submit(req)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, submitCode(created), s.Status(j))
}

// writeSubmitError maps a job or sweep submission error to its HTTP
// status: 400 for a bad request, 429 + Retry-After for a full queue,
// 503 while draining, 500 otherwise.
func writeSubmitError(w http.ResponseWriter, err error) {
	var reqErr *RequestError
	var full *QueueFullError
	switch {
	case errors.As(err, &reqErr):
		writeError(w, http.StatusBadRequest, reqErr.Error())
	case errors.As(err, &full):
		w.Header().Set("Retry-After", strconv.Itoa(full.RetryAfter))
		writeError(w, http.StatusTooManyRequests, full.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// submitCode is 202 for a submission that created work, 200 for a
// duplicate or cache hit.
func submitCode(created bool) int {
	if created {
		return http.StatusAccepted
	}
	return http.StatusOK
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, s.Status(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	st := s.Status(j)
	if st.State != StateDone {
		writeError(w, http.StatusConflict, "job is "+string(st.State)+", result not available")
		return
	}
	var name, contentType string
	switch artifact := r.URL.Query().Get("artifact"); artifact {
	case "", "result":
		name, contentType = jobKind.marker, "application/json"
	case "epochs":
		name, contentType = jobKind.data, "text/csv"
	default:
		writeError(w, http.StatusBadRequest, "unknown artifact "+strconv.Quote(artifact)+" (want result or epochs)")
		return
	}
	data, err := s.store.readVerified(jobKind, j.ID, name)
	if err != nil {
		failCorrupt(w, err, func(reason string) { j.setState(StateFailed, reason) })
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(data)
}

// failCorrupt reports a failed artifact read. When the failure is an
// integrity violation the store has already quarantined the entry, so
// downgrade turns the done job or sweep record into a failed one — the
// client gets a 410 with the diagnostic, and a resubmission of the same
// spec reruns instead of deduping onto the poisoned record. Stale, never
// wrong: under no path do unverified bytes leave the server.
func failCorrupt(w http.ResponseWriter, err error, downgrade func(reason string)) {
	var corrupt *CorruptError
	if !errors.As(err, &corrupt) {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	downgrade(corrupt.Error())
	writeError(w, http.StatusGone, corrupt.Error())
}

// handleSpans serves the job's wall-clock span trace: a render of every
// span completed so far while the job holds its recorder (queued,
// running, failed and canceled jobs — flight-recorder semantics), and
// the committed spans.json artifact once it is done.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	j.mu.Lock()
	rec := j.spans
	j.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if rec != nil {
		rec.WriteTrace(w)
		return
	}
	data, err := os.ReadFile(s.store.spansPath(j.ID))
	if err != nil {
		writeError(w, http.StatusNotFound, "no span trace for this job")
		return
	}
	w.Write(data)
}

// event is one NDJSON line on the /events stream. Exactly one of the
// payload fields is set, per Type: "status" carries Status (sent on
// connect and at every state or progress change), "epoch" carries one
// live telemetry sample from the run's repartitioning engine.
type event struct {
	Type   string                 `json:"type"`
	Status *Status                `json:"status,omitempty"`
	Epoch  *telemetry.EpochSample `json:"epoch,omitempty"`
}

// handleEvents streams the job's lifecycle as NDJSON until it reaches a
// terminal state or the client disconnects. Epoch samples are drained
// incrementally via Since(lastEval) from the ring the job held when the
// stream attached, so a stream attached before completion sees every
// epoch; a done job holds none (its epochs are /result?artifact=epochs).
// Status lines are re-sent whenever state or progress changes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	j.mu.Lock()
	ring := j.epochs
	j.mu.Unlock()
	var lastEval uint64
	var lastStatus string
	streamNDJSON(w, r, time.Second, func(enc *json.Encoder) (<-chan struct{}, bool, error) {
		j.mu.Lock()
		epochs := ring.Since(lastEval)
		wait := j.wait
		terminal := j.state.terminal()
		j.mu.Unlock()

		st := s.Status(j)
		// Only emit status lines that say something new; progress updates
		// arrive far more often than they change materially.
		if line, _ := json.Marshal(st); string(line) != lastStatus {
			lastStatus = string(line)
			if err := enc.Encode(event{Type: "status", Status: &st}); err != nil {
				return nil, false, err
			}
		}
		for i := range epochs {
			lastEval = epochs[i].Eval
			if err := enc.Encode(event{Type: "epoch", Epoch: &epochs[i]}); err != nil {
				return nil, false, err
			}
		}
		return wait, terminal, nil
	})
}

// streamNDJSON serves an NDJSON stream: emit writes whatever is new
// since its last call and returns the channel that closes on the next
// change, and whether the stream is finished. The loop also re-polls
// every tick without a change, so a dropped client is noticed (the
// write fails) rather than parked forever.
func streamNDJSON(w http.ResponseWriter, r *http.Request, tick time.Duration, emit func(enc *json.Encoder) (wait <-chan struct{}, done bool, err error)) {
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		wait, done, err := emit(enc)
		if err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}
