package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/fleet"
	"repro/internal/hier"
	"repro/internal/metrics"
	"repro/internal/report"
)

// maxBodyBytes bounds a submission body; configs are small JSON
// documents, so anything past this is a client error.
const maxBodyBytes = 1 << 20

// maxArtifactBytes bounds a lease-completion upload: an artifact is the
// epoch ring (bounded) plus a summary, far under this even base64-inflated.
const maxArtifactBytes = 64 << 20

// NewHandler builds the daemon's HTTP surface over a manager:
//
//	POST /v1/jobs             submit a run (202; 200 on a cache hit)
//	GET  /v1/jobs             list job statuses
//	GET  /v1/jobs/{id}        status + report (JSON/CSV/text negotiated)
//	GET  /v1/jobs/{id}/report the bare report artifact, byte-identical
//	                          to the equivalent cmd/hybridsim output
//	GET  /v1/jobs/{id}/epochs live epoch stream (NDJSON; SSE negotiated)
//	POST /v1/estimate         analytic fast-path estimate (synchronous;
//	                          sub-millisecond once calibrated)
//	POST /v1/sweeps           submit a batch sweep (202)
//	GET  /v1/sweeps           list sweep statuses
//	GET  /v1/sweeps/{id}      sweep status with per-child rows
//	POST /v1/leases           fleet worker acquires the next job (204
//	                          when idle; long-polls up to wait_millis)
//	GET  /v1/leases           list active leases
//	POST /v1/leases/{token}/heartbeat  renew a lease, report progress
//	POST /v1/leases/{token}/complete   upload the artifact or an error
//	GET  /healthz             liveness + drain state
//	GET  /metrics             manager operational metrics (Prometheus
//	                          text format when Accept asks for it)
//
// Every request is wrapped in structured logging on log (nil discards).
func NewHandler(m *Manager, log *slog.Logger) http.Handler {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &apiServer{m: m, log: log}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/epochs", s.handleEpochs)
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweeps)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweep)
	mux.HandleFunc("POST /v1/leases", s.handleAcquireLease)
	mux.HandleFunc("GET /v1/leases", s.handleListLeases)
	mux.HandleFunc("POST /v1/leases/{token}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/leases/{token}/complete", s.handleComplete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logging(mux)
}

type apiServer struct {
	m   *Manager
	log *slog.Logger
}

// statusWriter captures the status and byte count for request logging.
// Unwrap exposes the underlying writer so http.NewResponseController can
// still reach Flush through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// logging wraps a handler with structured request logs.
func (s *apiServer) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "bytes", sw.bytes,
			"duration", time.Since(start).Round(time.Microsecond))
	})
}

// wireFormat negotiates the report encoding: an explicit ?format= wins,
// then the Accept header, defaulting to JSON.
func wireFormat(r *http.Request) (report.Format, error) {
	switch q := r.URL.Query().Get("format"); q {
	case "json":
		return report.JSON, nil
	case "csv":
		return report.CSV, nil
	case "text":
		return report.Text, nil
	case "":
	default:
		return report.JSON, fmt.Errorf("unknown format %q (want json, csv or text)", q)
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "text/csv"):
		return report.CSV, nil
	case strings.Contains(accept, "text/plain"):
		return report.Text, nil
	default:
		return report.JSON, nil
	}
}

func contentType(f report.Format) string {
	switch f {
	case report.CSV:
		return "text/csv; charset=utf-8"
	case report.Text:
		return "text/plain; charset=utf-8"
	default:
		return "application/json"
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// jobReport renders a completed job through the shared cliutil.RunReport,
// so every encoding is byte-identical to the equivalent cmd/hybridsim
// invocation.
func jobReport(j *Job) *report.Report {
	res := j.Result()
	req := j.Request()
	opt := cliutil.RunReportOptions{CPthWinner: res.CPthWinner, Metrics: req.Metrics}
	if req.Epochs {
		opt.Epochs = res.Epochs
	}
	return cliutil.RunReport(req.Config, res.Summary, opt)
}

func (s *apiServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	req, err := DecodeJobRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, st, err := s.m.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Retry-After is derived from the backlog and the observed mean
		// job duration, not a constant: a queue of minute-long runs and a
		// queue of millisecond smoke runs deserve different advice.
		w.Header().Set("Retry-After", strconv.Itoa(s.m.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	// 200 only when the submission itself hit the cache; a miss answers
	// with its status at enqueue time, whatever a worker has done since.
	if st.CacheHit {
		writeJSON(w, http.StatusOK, s.jobResponse(j))
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *apiServer) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.Jobs()
	statuses := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		statuses[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, statuses)
}

// jobResponse assembles the JSON body for a job, embedding the rendered
// report once completed.
func (s *apiServer) jobResponse(j *Job) JobResponse {
	resp := JobResponse{JobStatus: j.Status()}
	if resp.State == StateCompleted {
		var buf bytes.Buffer
		if err := jobReport(j).WriteJSON(&buf); err == nil {
			resp.Report = json.RawMessage(buf.Bytes())
		}
	}
	return resp
}

func (s *apiServer) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	f, err := wireFormat(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if f == report.JSON {
		writeJSON(w, http.StatusOK, s.jobResponse(j))
		return
	}
	// CSV/text carry only the final report; an unfinished job gets a
	// plain 202 status line instead.
	st := j.Status()
	if st.State != StateCompleted {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if st.State.Terminal() {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintf(w, "job %s %s: %s\n", st.ID, st.State, st.Error)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "job %s %s (%d/%d cycles)\n", st.ID, st.State, st.ProgressCycles, st.TotalCycles)
		return
	}
	w.Header().Set("Content-Type", contentType(f))
	jobReport(j).Write(w, f)
}

// handleReport serves a completed job's report with no envelope: the
// bytes on the wire are exactly what cliutil.RunReport renders, so every
// format — JSON included — is byte-identical to the same run through
// cmd/hybridsim. (The JSON envelope at GET /v1/jobs/{id} embeds the same
// report, but the encoder re-indents it to the envelope's depth.)
func (s *apiServer) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	f, err := wireFormat(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if st := j.Status(); st.State != StateCompleted {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s, no report yet", st.ID, st.State))
		return
	}
	w.Header().Set("Content-Type", contentType(f))
	jobReport(j).Write(w, f)
}

// epochLine renders one sample as a single-line JSON object with values
// keyed by column, in column order (hand-built so the order is stable).
func epochLine(columns []string, s metrics.Sample) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"epoch":%d,"cycles":%d,"values":{`, s.Epoch, s.Cycles)
	for i, c := range columns {
		if i >= len(s.Values) {
			break
		}
		if i > 0 {
			b.WriteByte(',')
		}
		v := []byte("null")
		if f := s.Values[i]; !math.IsNaN(f) && !math.IsInf(f, 0) {
			v, _ = json.Marshal(f)
		}
		fmt.Fprintf(&b, `"%s":%s`, c, v)
	}
	b.WriteString("}}")
	return b.Bytes()
}

// handleEpochs streams a job's epoch series live: NDJSON by default,
// server-sent events when the client asks for text/event-stream. The
// stream replays every recorded epoch, follows the run until it reaches
// a terminal state, then ends.
func (s *apiServer) handleEpochs(w http.ResponseWriter, r *http.Request) {
	j, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	columns := hier.EpochColumns
	sent := 0
	for {
		samples, notify, terminal := j.epochsAfter(sent)
		for _, sample := range samples {
			line := epochLine(columns, sample)
			if sse {
				fmt.Fprintf(w, "data: %s\n\n", line)
			} else {
				w.Write(line)
				w.Write([]byte("\n"))
			}
			sent++
		}
		rc.Flush()
		if terminal && len(samples) == 0 {
			if sse {
				fmt.Fprintf(w, "event: done\ndata: %q\n\n", string(j.State()))
				rc.Flush()
			}
			return
		}
		if len(samples) > 0 {
			continue // drain everything pending before blocking
		}
		select {
		case <-r.Context().Done():
			return
		case <-notify:
		}
	}
}

// handleEstimate answers an analytic estimate synchronously: a cached
// calibration (memory or store artifact) is served in well under a
// millisecond; a miss runs the short calibration simulation on this
// request and is refused while draining. The response is a pure
// function of the spec, so repeat queries are byte-identical.
func (s *apiServer) handleEstimate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	spec, err := DecodeEstimateSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.m.Estimate(r.Context(), spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSubmitSweep decodes a sweep spec strictly, expands it
// server-side and starts the scheduler. Expansion problems (unknown
// axis, over-cap cross product, invalid child config) are client errors
// — nothing queues until the whole sweep is admissible.
func (s *apiServer) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	spec, err := DecodeSweepSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sw, err := s.m.SubmitSweep(spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+sw.ID())
	writeJSON(w, http.StatusAccepted, s.m.SweepStatus(sw, true))
}

func (s *apiServer) handleSweeps(w http.ResponseWriter, r *http.Request) {
	sweeps := s.m.Sweeps()
	statuses := make([]SweepStatus, len(sweeps))
	for i, sw := range sweeps {
		statuses[i] = s.m.SweepStatus(sw, false)
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (s *apiServer) handleSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.m.Sweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.m.SweepStatus(sw, true))
}

func (s *apiServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.m.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// handleAcquireLease grants the next runnable job to a fleet worker.
// 200 carries the grant; 204 means no work within the wait; 503 means
// draining (the worker's client backs off and retries).
func (s *apiServer) handleAcquireLease(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	var req fleet.AcquireRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("acquire request: %w", err))
		return
	}
	g, err := s.m.AcquireLease(r.Context(), req.WorkerID, time.Duration(req.WaitMillis)*time.Millisecond)
	switch {
	case errors.Is(err, ErrNoWork):
		w.WriteHeader(http.StatusNoContent)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, context.Canceled):
		return // client went away
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, g)
}

func (s *apiServer) handleListLeases(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Leases())
}

// handleHeartbeat renews a lease; 410 tells the worker the lease is
// gone and the run should be abandoned.
func (s *apiServer) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	var req fleet.HeartbeatRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("heartbeat request: %w", err))
			return
		}
	}
	resp, err := s.m.HeartbeatLease(r.PathValue("token"), req)
	if err != nil {
		writeError(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleComplete resolves a lease with an artifact upload or an error
// report. 400 with the lease left active means the upload failed
// verification and can be retried; 410 means the lease is gone.
func (s *apiServer) handleComplete(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxArtifactBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	var req fleet.CompleteRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("complete request: %w", err))
		return
	}
	resp, err := s.m.CompleteLease(r.PathValue("token"), req)
	switch {
	case errors.Is(err, fleet.ErrLeaseGone):
		writeError(w, http.StatusGone, err)
		return
	case errors.Is(err, ErrArtifactMismatch):
		writeError(w, http.StatusBadRequest, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *apiServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Prometheus exposition is negotiated first: a scraper's Accept
	// header ("text/plain; version=0.0.4") or ?format=prometheus wins
	// over the human report formats.
	if metrics.AcceptsPrometheus(r.Header.Get("Accept")) || r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", metrics.PrometheusContentType)
		metrics.WritePrometheus(w, "simd_", s.m.Registry().Snapshot())
		return
	}
	f, err := wireFormat(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if f == report.JSON && r.URL.Query().Get("format") == "" &&
		!strings.Contains(r.Header.Get("Accept"), "application/json") {
		f = report.Text // /metrics defaults to the text table
	}
	rep := report.NewReport("simd metrics")
	rep.AddTable(report.SnapshotTable("server", s.m.Registry().Snapshot()))
	w.Header().Set("Content-Type", contentType(f))
	rep.Write(w, f)
}
