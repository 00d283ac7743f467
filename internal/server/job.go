package server

import (
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/metrics"
)

// Result is everything a completed run leaves behind: the measured
// summary, the retained epoch series, and the set-dueling winner
// (negative for non-dueling policies). Results are immutable once
// published, so the cache and late readers share them freely.
type Result struct {
	Summary    core.Summary
	Epochs     []metrics.Sample
	CPthWinner int
}

// Job is one queued simulation run. All mutable state sits behind the
// mutex; readers get consistent copies and live epoch followers block on
// a closed-and-replaced notify channel.
type Job struct {
	id        string
	req       JobRequest
	cacheKey  string
	sweepID   string // owning sweep, empty for standalone submissions
	label     string // sweep-child axis label ("policy=CA,cpth=40")
	submitted time.Time

	mu        sync.Mutex
	state     JobState
	started   time.Time
	finished  time.Time
	done      uint64
	total     uint64
	attempts  int    // execution attempts so far (retries increment)
	worker    string // fleet worker holding (or last holding) the job
	recovered bool
	epochs    []metrics.Sample
	notify    chan struct{}
	result    *Result
	err       error
	cacheHit  bool
	lastCkpt  time.Time          // last journaled checkpoint (throttling)
	estimate  *analytic.Estimate // planner's analytic estimate, when planned
}

func newJob(id string, req JobRequest) *Job {
	return &Job{
		id:        id,
		req:       req,
		cacheKey:  req.CacheKey(),
		submitted: time.Now(),
		state:     StateQueued,
		total:     req.WarmupCycles + req.MeasureCycles,
		notify:    make(chan struct{}),
	}
}

// newCachedJob returns an already-completed job serving a cached result.
func newCachedJob(id string, req JobRequest, res *Result) *Job {
	j := newJob(id, req)
	j.cacheHit = true
	j.transition(StateCompleted, res, nil)
	return j
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Request returns the submission the job runs.
func (j *Job) Request() JobRequest { return j.req }

// CacheKey returns the content address of the job's result.
func (j *Job) CacheKey() string { return j.cacheKey }

// wake closes and replaces the notify channel, releasing every follower.
// Callers hold j.mu.
func (j *Job) wake() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// transition moves the job into the lifecycle row for to, when the
// table allows entering it from the job's current state, and reports
// whether it did; a refused transition changes nothing. Entering
// running stamps the start. Entering a terminal state stamps the finish
// and records res and err; a result also completes the progress and
// replaces the epoch series with the result's (ring-bounded) one, so
// polls and streams agree with what the report renders.
func (j *Job) transition(to JobState, res *Result, err error) bool {
	row, ok := lifecycle[to]
	j.mu.Lock()
	defer j.mu.Unlock()
	if !ok || !slices.Contains(row.from, j.state) {
		return false
	}
	now := time.Now()
	j.state = row.state
	switch {
	case j.state == StateRunning:
		j.started = now
	case j.state.Terminal():
		j.finished = now
		if j.started.IsZero() {
			j.started = now
		}
		j.result, j.err = res, err
		if res != nil {
			j.done = j.total
			j.epochs = res.Epochs
		}
	}
	j.wake()
	return true
}

// entry is the journal entry recording the job entering state. A
// progress-only row carries just the job ID; a transition also carries
// the job's owning sweep, label, content address and attempt count.
// Callers add the fields particular to the transition.
func (j *Job) entry(state JobState) jobstore.Entry {
	e := jobstore.Entry{Kind: jobstore.KindJob, ID: j.id, State: string(state)}
	if lifecycle[state].replay != replayProgress {
		e.Sweep, e.Label, e.CacheKey, e.Attempt = j.sweepID, j.label, j.cacheKey, j.Attempts()
	}
	return e
}

// setWorker records which fleet worker holds the job's lease.
func (j *Job) setWorker(worker string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.worker = worker
}

// beginAttempt records one more execution attempt, clearing any epochs a
// previous failed attempt streamed (the new run re-emits the series from
// the start; bit-exact determinism makes it the same series).
func (j *Job) beginAttempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempts++
	if j.attempts > 1 {
		j.epochs = j.epochs[:0]
	}
	return j.attempts
}

// Attempts returns how many execution attempts the job has made.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// awaitTerminal blocks until the job reaches a terminal state. The
// sweep scheduler uses it to pace child admission.
func (j *Job) awaitTerminal() {
	for {
		j.mu.Lock()
		term := j.state.Terminal()
		ch := j.notify
		j.mu.Unlock()
		if term {
			return
		}
		<-ch
	}
}

// shouldCheckpoint reports whether enough time has passed since the
// last journaled checkpoint (negative interval means always), claiming
// the slot when it has.
func (j *Job) shouldCheckpoint(interval time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	if interval >= 0 && now.Sub(j.lastCkpt) < interval {
		return false
	}
	j.lastCkpt = now
	return true
}

// addEpoch appends a newly closed epoch sample (a RunHooks.OnEpoch
// callback) and wakes streaming followers.
func (j *Job) addEpoch(s metrics.Sample) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.epochs = append(j.epochs, s)
	j.wake()
}

// setProgress records cycles simulated so far (RunHooks.OnProgress).
func (j *Job) setProgress(done, total uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done, j.total = done, total
}

// setEstimate records the planner's analytic estimate for the child.
func (j *Job) setEstimate(est analytic.Estimate) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.estimate = &est
}

// Estimate returns the planner's analytic estimate, or nil when the job
// was never planned analytically.
func (j *Job) Estimate() *analytic.Estimate {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.estimate
}

// Result returns the completed result, or nil while the job is not
// successfully finished.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Err returns the job's terminal error, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the job for the wire.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:             j.id,
		State:          j.state,
		SubmittedAt:    j.submitted,
		ProgressCycles: j.done,
		TotalCycles:    j.total,
		Epochs:         len(j.epochs),
		Attempts:       j.attempts,
		CacheHit:       j.cacheHit,
		CacheKey:       j.cacheKey,
		Sweep:          j.sweepID,
		Label:          j.label,
		Worker:         j.worker,
		Recovered:      j.recovered,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// epochsAfter returns the epoch samples recorded after the first n, a
// channel that closes on the next state change, and whether the job is
// terminal. Streaming handlers loop on it: drain the new samples, then
// either stop (terminal, nothing pending) or block on the channel.
func (j *Job) epochsAfter(n int) ([]metrics.Sample, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []metrics.Sample
	if n < len(j.epochs) {
		out = append(out, j.epochs[n:]...)
	}
	return out, j.notify, j.state.Terminal()
}

// execute runs one request through the engine: build, optional pre-age,
// the chunked measure window, and the result the cache and artifacts
// hold. Local pool workers and fleet workers both run it, which is what
// makes a job's artifact bytes the same wherever it runs.
func execute(ctx context.Context, req JobRequest, hooks core.RunHooks) (*Result, error) {
	h, err := req.Config.NewRunHandle()
	if err != nil {
		return nil, err
	}
	if req.Capacity < 1 {
		h.PreAge(req.Capacity)
	}
	sum, err := h.MeasureCtx(ctx, req.WarmupCycles, req.MeasureCycles, hooks)
	if err != nil {
		return nil, err
	}
	winner := -1
	if w, ok := h.DuelingWinner(); ok {
		winner = w
	}
	return &Result{
		Summary:    sum,
		Epochs:     h.EpochRing().Samples(),
		CPthWinner: winner,
	}, nil
}
