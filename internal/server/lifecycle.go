package server

import "repro/internal/jobstore"

// This file is the job lifecycle: one table row per state the journal
// records. Job.transition checks every in-memory state change against
// it, and recovery reads it to decide what a replayed job becomes.
// DESIGN.md §12 renders the table.

// Journal-only states. Each enters a row of the lifecycle table, but a
// Job never holds one: the row maps it onto the in-memory state the
// wire reports.
const (
	// stateLeased: the job left the queue on a fleet lease (running).
	stateLeased JobState = "leased"
	// stateRetrying: the attempt failed transiently and the job waits
	// out its backoff before going back on the queue (queued).
	stateRetrying JobState = "retrying"
	// stateRequeued: the job's fleet lease expired and it went back on
	// the queue (queued).
	stateRequeued JobState = "requeued"
)

// replay is what recovery does with a job whose last journaled
// transition entered a row.
type replay int

const (
	// replayRerun: the job was interrupted; run it again. The zero
	// value, so a state this build does not know also re-runs.
	replayRerun replay = iota
	// replayServe: serve the journaled artifact (hash-verified); a
	// missing or unusable artifact re-runs the job.
	replayServe
	// replayKeep: the state is final and stays.
	replayKeep
	// replayRerunIfSweepOpen: final for a standalone job or a child of
	// a completed sweep; a child of an unfinished sweep re-runs (the
	// cancel came from a drain, and the resumed sweep still owes the
	// result).
	replayRerunIfSweepOpen
	// replayProgress: a progress mark, never a job's state; Reduce
	// folds it into the record's progress fields.
	replayProgress
)

// lifecycleRow is one journal state: the in-memory state it maps to,
// the in-memory states a transition may enter it from (none: no
// transition enters it), and what recovery does with it.
type lifecycleRow struct {
	state  JobState
	from   []JobState
	replay replay
}

// lifecycle is the job state machine. No row may be entered from a
// terminal state, so a terminal job stays terminal: a late requeue,
// lease expiry or duplicate completion is refused and changes nothing.
var lifecycle = map[JobState]lifecycleRow{
	StateQueued:              {StateQueued, nil, replayRerun},
	StateRunning:             {StateRunning, []JobState{StateQueued}, replayRerun},
	stateLeased:              {StateRunning, []JobState{StateQueued}, replayRerun},
	stateRetrying:            {StateQueued, []JobState{StateRunning}, replayRerun},
	stateRequeued:            {StateQueued, []JobState{StateRunning}, replayRerun},
	StateCompleted:           {StateCompleted, []JobState{StateQueued, StateRunning}, replayServe},
	StateFailed:              {StateFailed, []JobState{StateQueued, StateRunning}, replayKeep},
	StateCanceled:            {StateCanceled, []JobState{StateQueued, StateRunning}, replayRerunIfSweepOpen},
	StateScreened:            {StateScreened, []JobState{StateQueued}, replayKeep},
	jobstore.StateCheckpoint: {StateRunning, nil, replayProgress},
}
