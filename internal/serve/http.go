package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"ref/internal/cobb"
	"ref/internal/hier"
	"ref/internal/obs"
	"ref/internal/platform"
	"ref/internal/trace"
	"ref/internal/workloads"
)

// MetricHTTPRequests counts HTTP responses, labeled by status code.
const MetricHTTPRequests = "ref_serve_http_requests_total"

// maxNameLen bounds agent names on the wire.
const maxNameLen = 256

// joinRequest is the POST /v1/agents body. Exactly one of Elasticities
// and Workload must be set.
type joinRequest struct {
	// Name is the tenant's unique identifier; rejoining re-declares.
	Name string `json:"name"`
	// Alpha0 is the utility scale constant; 0 means the default 1.
	Alpha0 float64 `json:"alpha0"`
	// Elasticities declares the utility directly, one per resource.
	Elasticities []float64 `json:"elasticities"`
	// Workload names a catalog workload to profile and fit instead
	// (re-fit via workloads.FitAll, memoized process-wide).
	Workload string `json:"workload"`
	// Queue names the leaf queue to join (empty = the default queue).
	// On a re-declare an empty Queue inherits the agent's current
	// queue; naming one moves the agent.
	Queue string `json:"queue"`
}

// patchRequest is the PATCH /v1/agents/{name} body: a raw elasticity
// re-declaration for an agent that must already exist.
type patchRequest struct {
	// Alpha0 is the utility scale constant; 0 means the default 1.
	Alpha0 float64 `json:"alpha0"`
	// Elasticities declares the new utility, one per resource.
	Elasticities []float64 `json:"elasticities"`
}

// Handler returns the public JSON API:
//
//	POST   /v1/agents            join or re-declare (joinRequest body)
//	PATCH  /v1/agents/{name}     re-declare elasticities (patchRequest body)
//	DELETE /v1/agents/{name}     leave
//	GET    /v1/agents            live agent set (elided above the inline threshold)
//	POST   /v1/queues            declare or re-declare a queue (hier.QueueConfig body)
//	GET    /v1/queues            live per-queue rollups
//	DELETE /v1/queues/{name}     delete an empty leaf queue
//	GET    /v1/allocation        live snapshot
//	GET    /v1/allocation?agent=X  one agent's row (O(R) at any scale)
//	GET    /v1/allocation?since=E  changes since epoch E
//	GET    /v1/healthz           liveness, drain state, epoch latency, SLO
//	GET    /debug/ref/flightrecorder  epoch flight recorder ring + dumps
//
// Every response is JSON with the ref/serve/v1 schema; every failure is
// an ErrorResponse envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/agents", s.handleJoin)
	mux.HandleFunc("PATCH /v1/agents/{name}", s.handlePatch)
	mux.HandleFunc("DELETE /v1/agents/{name}", s.handleLeave)
	mux.HandleFunc("GET /v1/agents", s.handleAgents)
	mux.HandleFunc("POST /v1/queues", s.handleQueueUpsert)
	mux.HandleFunc("GET /v1/queues", s.handleQueues)
	mux.HandleFunc("DELETE /v1/queues/{name}", s.handleQueueDelete)
	mux.HandleFunc("GET /v1/allocation", s.handleAllocation)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/ref/flightrecorder", s.handleFlightRecorder)
	// The enhanced mux reports both unknown paths and method mismatches
	// as an empty pattern from Handler; probing the path under the other
	// supported methods tells the two apart, so both failure modes get
	// typed envelopes instead of the mux's plain-text bodies.
	methods := []string{http.MethodGet, http.MethodPost, http.MethodPatch, http.MethodDelete}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := mux.Handler(r); pattern != "" {
			mux.ServeHTTP(w, r)
			return
		}
		for _, m := range methods {
			if m == r.Method {
				continue
			}
			probe := r.Clone(r.Context())
			probe.Method = m
			if _, pattern := mux.Handler(probe); pattern != "" {
				writeError(w, &APIError{Code: CodeMethodNotAllowed, Status: http.StatusMethodNotAllowed,
					Message: fmt.Sprintf("method %s not allowed for %s", r.Method, r.URL.Path)})
				return
			}
		}
		writeError(w, &APIError{Code: CodeNotFound, Status: http.StatusNotFound,
			Message: fmt.Sprintf("no route %s %s", r.Method, r.URL.Path)})
	})
}

// handleJoin validates the body, resolves workload profiles to fitted
// utilities, and blocks until the join's epoch publishes.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if aerr := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	wire, util, aerr := s.resolveJoin(req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	epoch, row, queue, aerr := s.Join(r.Context(), wire, util)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	wire.Queue = queue
	writeJSON(w, http.StatusOK, JoinResponse{Schema: Schema, Epoch: epoch, Agent: wire, Allocation: row})
}

// resolveJoin turns a join request into a validated wire agent + utility.
func (s *Server) resolveJoin(req joinRequest) (WireAgent, cobb.Utility, *APIError) {
	var zero WireAgent
	if req.Name == "" {
		return zero, cobb.Utility{}, &APIError{Code: CodeInvalidAgent, Status: http.StatusBadRequest,
			Message: "agent name is required"}
	}
	if len(req.Name) > maxNameLen || !utf8.ValidString(req.Name) {
		return zero, cobb.Utility{}, &APIError{Code: CodeInvalidAgent, Status: http.StatusBadRequest,
			Message: fmt.Sprintf("agent name must be valid UTF-8 of at most %d bytes", maxNameLen)}
	}
	hasElast, hasWorkload := len(req.Elasticities) > 0, req.Workload != ""
	if hasElast == hasWorkload {
		return zero, cobb.Utility{}, &APIError{Code: CodeInvalidAgent, Status: http.StatusBadRequest,
			Message: "declare exactly one of elasticities or workload"}
	}
	queue := req.Queue
	if queue == hier.DefaultQueue {
		queue = "" // canonical wire form for the default queue
	}
	if queue != "" && (len(queue) > maxNameLen || !utf8.ValidString(queue)) {
		return zero, cobb.Utility{}, &APIError{Code: CodeInvalidQueue, Status: http.StatusBadRequest,
			Message: fmt.Sprintf("queue name must be valid UTF-8 of at most %d bytes", maxNameLen)}
	}
	alpha0 := req.Alpha0
	if alpha0 == 0 {
		alpha0 = 1
	}

	if hasWorkload {
		if alpha0 != 1 {
			return zero, cobb.Utility{}, &APIError{Code: CodeInvalidAgent, Status: http.StatusBadRequest,
				Message: "alpha0 cannot be combined with a workload profile (the fit determines it)"}
		}
		util, aerr := s.fitWorkload(req.Workload)
		if aerr != nil {
			return zero, cobb.Utility{}, aerr
		}
		return WireAgent{Name: req.Name, Alpha0: util.Alpha0, Elasticities: util.Alpha, Workload: req.Workload, Queue: queue}, util, nil
	}

	if len(req.Elasticities) != len(s.cfg.Capacity) {
		return zero, cobb.Utility{}, &APIError{Code: CodeInvalidUtility, Status: http.StatusBadRequest,
			Message: fmt.Sprintf("%d elasticities for %d resources", len(req.Elasticities), len(s.cfg.Capacity))}
	}
	util, err := cobb.New(alpha0, req.Elasticities...)
	if err != nil {
		return zero, cobb.Utility{}, &APIError{Code: CodeInvalidUtility, Status: http.StatusBadRequest,
			Message: err.Error()}
	}
	return WireAgent{Name: req.Name, Alpha0: util.Alpha0, Elasticities: util.Alpha, Queue: queue}, util, nil
}

// fitWorkload resolves a catalog workload name to a fitted Cobb-Douglas
// utility via the memoized profiling sweep, on whatever resource model the
// server runs: the configured Spec when one was given, otherwise a spec
// inferred from the capacity dimensionality (2 → the paper's
// cache+bandwidth machine, 3 → the 3-resource machine). Two-resource
// servers keep the historical whole-catalog sweep; other specs fit the one
// joining workload, memoized per (spec, budget, workload).
func (s *Server) fitWorkload(name string) (cobb.Utility, *APIError) {
	if _, err := trace.Lookup(name); err != nil {
		return cobb.Utility{}, &APIError{Code: CodeUnknownWorkload, Status: http.StatusNotFound,
			Message: fmt.Sprintf("workload %q is not in the catalog", name)}
	}
	spec := s.cfg.Spec
	if len(spec.Dims) == 0 {
		var err error
		spec, err = platform.ByResources(len(s.cfg.Capacity))
		if err != nil {
			return cobb.Utility{}, &APIError{Code: CodeInvalidAgent, Status: http.StatusBadRequest,
				Message: fmt.Sprintf("workload profiles need a platform spec; none is defined for %d resources", len(s.cfg.Capacity))}
		}
	}
	if spec.Key() == platform.Default().Key() {
		fitted, err := workloads.FitAllParallel(s.cfg.ProfileAccesses, s.cfg.Parallelism)
		if err != nil {
			return cobb.Utility{}, &APIError{Code: CodeProfileFailed, Status: http.StatusInternalServerError,
				Message: fmt.Sprintf("profiling sweep failed: %v", err)}
		}
		f, ok := fitted[name]
		if !ok {
			return cobb.Utility{}, &APIError{Code: CodeUnknownWorkload, Status: http.StatusNotFound,
				Message: fmt.Sprintf("workload %q is not in the catalog", name)}
		}
		return f.Fit.Utility, nil
	}
	f, err := workloads.FitWorkloadSpec(spec, name, s.cfg.ProfileAccesses, s.cfg.Parallelism)
	if err != nil {
		return cobb.Utility{}, &APIError{Code: CodeProfileFailed, Status: http.StatusInternalServerError,
			Message: fmt.Sprintf("profiling sweep failed: %v", err)}
	}
	return f.Fit.Utility, nil
}

// handlePatch validates an elasticity re-declaration for an existing
// agent and blocks until its epoch publishes. Unlike POST /v1/agents it
// never creates an agent: an unknown name is a 404.
func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" || len(name) > maxNameLen || !utf8.ValidString(name) {
		writeError(w, &APIError{Code: CodeInvalidAgent, Status: http.StatusBadRequest,
			Message: fmt.Sprintf("agent name must be valid UTF-8 of at most %d bytes", maxNameLen)})
		return
	}
	var req patchRequest
	if aerr := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	if len(req.Elasticities) != len(s.cfg.Capacity) {
		writeError(w, &APIError{Code: CodeInvalidUtility, Status: http.StatusBadRequest,
			Message: fmt.Sprintf("%d elasticities for %d resources", len(req.Elasticities), len(s.cfg.Capacity))})
		return
	}
	alpha0 := req.Alpha0
	if alpha0 == 0 {
		alpha0 = 1
	}
	util, err := cobb.New(alpha0, req.Elasticities...)
	if err != nil {
		writeError(w, &APIError{Code: CodeInvalidUtility, Status: http.StatusBadRequest, Message: err.Error()})
		return
	}
	wire := WireAgent{Name: name, Alpha0: util.Alpha0, Elasticities: util.Alpha}
	epoch, row, queue, aerr := s.Update(r.Context(), wire, util)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	wire.Queue = queue
	writeJSON(w, http.StatusOK, JoinResponse{Schema: Schema, Epoch: epoch, Agent: wire, Allocation: row})
}

// handleLeave blocks until the departure's epoch publishes.
func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	epoch, aerr := s.Leave(r.Context(), name)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, LeaveResponse{Schema: Schema, Epoch: epoch, Name: name})
}

// handleQueueUpsert declares (or re-declares, possibly moving) a queue
// and blocks until its epoch publishes. The body is a hier.QueueConfig;
// structural invariants (cycles, depth, quota nesting) are validated
// against the live tree at apply time.
func (s *Server) handleQueueUpsert(w http.ResponseWriter, r *http.Request) {
	var req hier.QueueConfig
	if aerr := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); aerr != nil {
		writeError(w, aerr)
		return
	}
	epoch, aerr := s.QueueUpsert(r.Context(), req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, QueueResponse{Schema: Schema, Epoch: epoch, Queue: req})
}

// handleQueues serves the live per-queue rollups.
func (s *Server) handleQueues(w http.ResponseWriter, _ *http.Request) {
	epoch, rollups := s.QueueRollups()
	if rollups == nil {
		rollups = []QueueRollup{}
	}
	writeJSON(w, http.StatusOK, QueuesResponse{Schema: Schema, Epoch: epoch, Queues: rollups})
}

// handleQueueDelete blocks until the queue deletion's epoch publishes.
func (s *Server) handleQueueDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	epoch, aerr := s.QueueDelete(r.Context(), name)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, QueueDeleteResponse{Schema: Schema, Epoch: epoch, Name: name})
}

// handleAllocation serves the live snapshot; with ?agent=X it answers a
// single row and with ?since=E a delta, both from the sharded table's
// per-shard indexes without serializing the population.
func (s *Server) handleAllocation(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name, sinceStr := q.Get("agent"), q.Get("since")
	switch {
	case name != "" && sinceStr != "":
		writeError(w, &APIError{Code: CodeBadQuery, Status: http.StatusBadRequest,
			Message: "agent and since cannot be combined"})
	case name != "":
		resp := s.AgentRow(name)
		if resp == nil {
			writeError(w, &APIError{Code: CodeUnknownAgent, Status: http.StatusNotFound,
				Message: fmt.Sprintf("no agent named %q", name)})
			return
		}
		writeJSON(w, http.StatusOK, resp)
	case sinceStr != "":
		since, err := strconv.ParseUint(sinceStr, 10, 64)
		if err != nil {
			writeError(w, &APIError{Code: CodeBadQuery, Status: http.StatusBadRequest,
				Message: fmt.Sprintf("since must be an epoch number: %v", err)})
			return
		}
		writeJSON(w, http.StatusOK, s.DeltaSince(since))
	default:
		writeSnapshot(w, s.Current())
	}
}

// snapshotBufs recycles full-snapshot bodies between requests: at a few
// thousand inline agents a body is several hundred KB.
var snapshotBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeSnapshot writes the full snapshot body through appendSnapshot into
// a pooled buffer. A snapshot JSON cannot encode (a non-finite float)
// gets a typed 500 envelope instead of a truncated 200.
func writeSnapshot(w http.ResponseWriter, snap *Snapshot) {
	bp := snapshotBufs.Get().(*[]byte)
	defer snapshotBufs.Put(bp)
	body, err := appendSnapshot((*bp)[:0], snap)
	*bp = body
	if err != nil {
		writeError(w, &APIError{Code: CodeEncodeFailed, Status: http.StatusInternalServerError,
			Message: fmt.Sprintf("snapshot at epoch %d cannot be encoded: %v", snap.Epoch, err)})
		return
	}
	writeHeader(w, http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client has gone; nothing to report
}

// agentsResponse is GET /v1/agents.
type agentsResponse struct {
	Schema string      `json:"schema"`
	Epoch  uint64      `json:"epoch"`
	Agents []WireAgent `json:"agents"`
	// Elided and Count mirror the snapshot's elision above the inline
	// threshold: the agent list is omitted, only its size is reported.
	Elided bool `json:"agents_elided,omitempty"`
	Count  int  `json:"agent_count,omitempty"`
}

// handleAgents serves the live agent set.
func (s *Server) handleAgents(w http.ResponseWriter, _ *http.Request) {
	snap := s.Current()
	resp := agentsResponse{Schema: Schema, Epoch: snap.Epoch, Agents: snap.Agents}
	if snap.AgentsElided {
		resp.Elided, resp.Count = true, snap.AgentCount
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness, drain state, interpolated epoch
// latency quantiles from the installed registry, and the epoch-latency
// SLO when one is configured.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.Current()
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	resp := HealthResponse{Schema: Schema, Status: status, Epoch: snap.Epoch, Agents: snap.NumAgents()}
	if r := obs.Installed(); r != nil {
		if h := r.Histogram(MetricEpochSeconds).Snapshot(); h.Count > 0 {
			resp.EpochP50Seconds = h.Quantile(0.5)
			resp.EpochP99Seconds = h.Quantile(0.99)
		}
	}
	if slo, ok := s.SLOStats(); ok {
		resp.SLO = &slo
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFlightRecorder serves the epoch flight recorder's live ring and
// retained anomaly dumps. With the recorder off it still answers 200
// with enabled: false, so probes can tell "off" from "broken".
func (s *Server) handleFlightRecorder(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.FlightState())
}

// decodeBody reads a bounded JSON body into v, mapping every failure to a
// typed error. Unknown fields are rejected so schema typos fail loudly;
// JSON cannot encode NaN or ±Inf, and out-of-float64-range literals
// (e.g. 1e999) fail decoding, so no non-finite number gets past here.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) *APIError {
	body := http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &APIError{Code: CodeBodyTooLarge, Status: http.StatusRequestEntityTooLarge,
				Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return &APIError{Code: CodeBadJSON, Status: http.StatusBadRequest,
			Message: "invalid request body: " + err.Error()}
	}
	if dec.More() {
		return &APIError{Code: CodeBadJSON, Status: http.StatusBadRequest,
			Message: "invalid request body: trailing data after JSON value"}
	}
	return nil
}

// requestMetric names the MetricHTTPRequests counter for one status.
func requestMetric(status int) string {
	return MetricHTTPRequests + `{code="` + strconv.Itoa(status) + `"}`
}

// requestMetrics holds the counter names of the statuses the API answers
// with, built once so counting a response costs no formatting.
var requestMetrics = func() map[int]string {
	m := make(map[int]string)
	for _, status := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusMethodNotAllowed, http.StatusConflict, http.StatusRequestEntityTooLarge,
		http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusGatewayTimeout} {
		m[status] = requestMetric(status)
	}
	return m
}()

// writeHeader counts the response by status and sends the JSON header.
func writeHeader(w http.ResponseWriter, status int) {
	name, ok := requestMetrics[status]
	if !ok {
		name = requestMetric(status)
	}
	obs.Inc(name)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
}

// writeJSON writes v with the given status and counts the response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	writeHeader(w, status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes the typed error envelope, adding Retry-After on
// shedding responses so well-behaved clients back off for one epoch
// window instead of hammering.
func writeError(w http.ResponseWriter, aerr *APIError) {
	if aerr.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(aerr.RetryAfter))
	}
	writeJSON(w, aerr.Status, ErrorResponse{Schema: Schema, Err: *aerr})
}

// Serve binds addr (e.g. ":8080" or "127.0.0.1:0") and serves the public
// API on it, mirroring the obs.Serve pattern: it returns once the
// listener is bound so Addr is immediately routable.
func (s *Server) Serve(addr string) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &HTTPServer{ln: ln, srv: srv}, nil
}

// HTTPServer is a running public-API listener.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address (resolving a requested :0 port).
func (h *HTTPServer) Addr() string { return h.ln.Addr().String() }

// Shutdown stops accepting connections and waits for in-flight requests,
// honoring ctx.
func (h *HTTPServer) Shutdown(ctx context.Context) error { return h.srv.Shutdown(ctx) }

// Close force-closes the listener.
func (h *HTTPServer) Close() error { return h.srv.Close() }
