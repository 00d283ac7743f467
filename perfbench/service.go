package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/server"
)

// serviceClients is the number of closed-loop HTTP clients.
const serviceClients = 2

// serviceSample is how many simulated jobs of a traced service run are
// replayed through the library, untraced and traced, for the library
// layers' figures.
const serviceSample = 6

// serviceStream names a client's stream of distinct requests in
// expected.json.
func serviceStream(client int) string { return fmt.Sprintf("%s/%d", serviceQuick, client) }

// service is an in-process simd: a manager over a jobstore data
// directory, behind the HTTP handler on a loopback listener.
type service struct {
	store  *jobstore.Store
	m      *server.Manager
	srv    *http.Server
	served chan error
	base   string
}

// startService boots simd over dir with the default worker count,
// replaying whatever journal dir holds.
func startService(dir string) (*service, error) {
	store, err := jobstore.Open(dir)
	if err != nil {
		return nil, err
	}
	m, err := server.NewManager(server.Options{Store: store})
	if err != nil {
		store.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		store.Close()
		return nil, err
	}
	s := &service{store: store, m: m, srv: &http.Server{Handler: server.NewHandler(m, nil)},
		served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the HTTP server, waits for it, then closes the manager and
// the store.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.m.Close()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// jobResult is one request as a client saw it.
type jobResult struct {
	in     jobInput
	ok     bool
	hit    bool
	wallNs int64
	out    outcome
	report any    // decoded report, numbers kept as written
	raw    []byte // report bytes as served
	key    string // cache key

	// Traced runs only.
	submitNs, reportNs int64
	status             server.JobStatus
}

// httpDo sends one request and returns the status code and body.
func httpDo(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobBody is the POST /v1/jobs document for a quick-geometry job.
func jobBody(in opInput) ([]byte, error) {
	return json.Marshal(struct {
		Config  core.Config `json:"config"`
		Warmup  uint64      `json:"warmup_cycles"`
		Measure uint64      `json:"measure_cycles"`
	}{quickConfig(in), quickWarmup, quickMeasure})
}

// parseReport reads the checked outcome and the whole decoded report from
// a report document.
func parseReport(raw []byte) (outcome, any, error) {
	var doc any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return outcome{}, nil, fmt.Errorf("report: %w", err)
	}
	var r struct {
		Fields struct {
			MeanIPC  json.Number `json:"mean_ipc"`
			Hits     uint64      `json:"hits"`
			Misses   uint64      `json:"misses"`
			NVMBytes uint64      `json:"nvm_bytes_written"`
		} `json:"fields"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return outcome{}, nil, fmt.Errorf("report: %w", err)
	}
	ipc, err := strconv.ParseFloat(string(r.Fields.MeanIPC), 64)
	if err != nil {
		return outcome{}, nil, fmt.Errorf("report mean_ipc: %w", err)
	}
	f := r.Fields
	return outcome{MeanIPC: exact(ipc), Hits: f.Hits, Misses: f.Misses, NVMBytes: f.NVMBytes}, doc, nil
}

// svcClient is one closed-loop client.
type svcClient struct {
	id      int
	http    *http.Client
	base    string
	stream  *jobStream
	tr      *tracer // nil when untraced
	exp     *expectations
	res     *result
	results []jobResult
	end     int64
	// repeatMisses counts repeated requests the cache did not serve.
	repeatMisses int
}

// do runs one job to its report: POST, then — unless the cache answered —
// follow the /epochs stream to its end and GET the report. A traced run
// also reads the job's status for its server-side timestamps.
func (c *svcClient) do(in opInput, op int) (jobResult, error) {
	var r jobResult
	body, err := jobBody(in)
	if err != nil {
		return r, err
	}
	root := -1
	span := func(name string, start int64) {
		if c.tr != nil {
			c.tr.add(op, root, name, start, nanotime())
		}
	}
	t0 := nanotime()
	if c.tr != nil {
		root = c.tr.begin(op, -1, "job")
		defer func() { c.tr.end(root) }()
	}
	code, data, err := httpDo(c.http, http.MethodPost, c.base+"/v1/jobs", body)
	r.submitNs = nanotime() - t0
	span("http.submit", t0)
	if err != nil {
		return r, err
	}
	switch code {
	case http.StatusOK: // served from the result cache
		var jr struct {
			server.JobStatus
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(data, &jr); err != nil {
			return r, fmt.Errorf("submit response: %w", err)
		}
		r.hit, r.raw, r.key, r.status = true, jr.Report, jr.CacheKey, jr.JobStatus
		r.wallNs = nanotime() - t0
	case http.StatusAccepted:
		if err := json.Unmarshal(data, &r.status); err != nil {
			return r, fmt.Errorf("submit response: %w", err)
		}
		r.key = r.status.CacheKey
		jobURL := c.base + "/v1/jobs/" + r.status.ID
		t1 := nanotime()
		if code, _, err := httpDo(c.http, http.MethodGet, jobURL+"/epochs", nil); err != nil || code != http.StatusOK {
			return r, fmt.Errorf("epochs stream: status %d: %v", code, err)
		}
		span("http.epochs", t1)
		t2 := nanotime()
		code, data, err := httpDo(c.http, http.MethodGet, jobURL+"/report", nil)
		r.reportNs = nanotime() - t2
		span("http.report", t2)
		if err != nil || code != http.StatusOK {
			return r, fmt.Errorf("report: status %d: %v: %s", code, err, bytes.TrimSpace(data))
		}
		r.raw = data
		r.wallNs = nanotime() - t0
		if c.tr != nil {
			t3 := nanotime()
			code, data, err := httpDo(c.http, http.MethodGet, jobURL, nil)
			span("http.status", t3)
			if err != nil || code != http.StatusOK {
				return r, fmt.Errorf("status: %d: %v", code, err)
			}
			if err := json.Unmarshal(data, &r.status); err != nil {
				return r, fmt.Errorf("status: %w", err)
			}
			st := r.status
			if st.StartedAt != nil && st.FinishedAt != nil {
				c.tr.add(op, root, "server.queue_wait", wallNs(st.SubmittedAt), wallNs(*st.StartedAt))
				c.tr.add(op, root, "server.run", wallNs(*st.StartedAt), wallNs(*st.FinishedAt))
			}
		}
	default:
		return r, fmt.Errorf("submit refused: status %d: %s", code, bytes.TrimSpace(data))
	}
	r.out, r.report, err = parseReport(r.raw)
	if err != nil {
		return r, err
	}
	r.ok = true
	return r, nil
}

// checkRepeat checks request k, a repeat of request orig at index of.
// The report must equal the original's, and the result cache must serve
// it. One miss is allowed, and reported as missed: simd wakes a job's
// followers before it puts the result in the cache, so a repeat of the
// request just before (of == k-1) can reach simd before the cache holds
// it and run the job again. An older request has had a whole job of this
// client between its completion and the repeat, so its repeat must hit.
func checkRepeat(k, of int, r, orig jobResult) (missed bool, err error) {
	switch {
	case !orig.ok:
		return false, fmt.Errorf("repeats request %d, which failed", of)
	case !reflect.DeepEqual(r.report, orig.report):
		return false, fmt.Errorf("report differs from request %d's: %s vs %s", of, r.raw, orig.raw)
	case r.hit:
		return false, nil
	case of == k-1:
		return true, nil
	}
	return false, fmt.Errorf("repeat of request %d was not served from the cache", of)
}

// wallNs places a wall-clock time on the benchmark's clock.
func wallNs(t time.Time) int64 { return int64(t.Sub(clockBase)) }

// loop runs requests until the deadline, at least one, checking every
// report.
func (c *svcClient) loop(seed uint64, deadline int64) {
	for k := 0; k == 0 || nanotime() < deadline; k++ {
		in := c.stream.next()
		op := k*serviceClients + c.id
		c.res.attempted++
		var r jobResult
		var err error
		if in.RepeatOf >= 0 {
			orig := c.results[in.RepeatOf]
			r, err = c.do(orig.in.opInput, op)
			r.in = in
			if err == nil {
				var missed bool
				missed, err = checkRepeat(k, in.RepeatOf, r, orig)
				if missed {
					c.repeatMisses++
				}
			}
		} else {
			r, err = c.do(in.opInput, op)
			r.in = in
			if err == nil && r.hit {
				err = fmt.Errorf("a first request was served from the cache")
			}
			if err == nil {
				err = c.exp.check(serviceStream(c.id), in.Unique, r.out, seed)
			}
		}
		c.end = nanotime()
		if err != nil {
			r.ok = false
			c.res.fail(fmt.Sprintf("client %d request %d: %v", c.id, k, err))
		}
		c.results = append(c.results, r)
	}
}
