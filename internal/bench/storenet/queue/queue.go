// Package queue is the work-queue heart of a build farm: the
// coordinator state machine that turns a fleet of workers into a
// self-organizing grid. brbench's farm roles that leased from it were
// removed; only package storenet's queue API still wraps it.
//
// The static alternative — brbench -shard i/n — decides the partition up
// front, so one slow or dead machine stalls its slice and the merge waits
// forever. Here workers *pull*: the coordinator holds the
// (workload × heuristic set × options) matrix as jobs, hands each out
// under a time-limited lease, and re-offers any lease whose holder stops
// heartbeating. A straggler costs one TTL, never the grid.
//
// Lease protocol:
//
//	          Enqueue                Lease                 Complete
//	(absent) ────────▶ pending ───────────────▶ leased ─────────────▶ done
//	                      ▲                       │  │
//	                      │   deadline passes     │  │ Complete with
//	                      └───────────────────────┘  │ error, attempt
//	                        (expired: re-offered)    ▼ budget exhausted
//	                                               failed
//
// Heartbeat extends a live lease's deadline. An expired job keeps its
// last token, so the original holder can still reclaim it (Heartbeat) or
// land a late Complete — but only until some other worker leases it,
// after which the stale token gets ErrLeaseConflict and the late worker
// drops the job instead of fighting for it. Complete on a done job is
// idempotent: results are content-addressed in the store, so a duplicate
// build produced identical bytes and the transition simply happened
// earlier.
//
// The queue holds only coordination state, never results: workers write
// builds through the same store tier they already share, so the queue
// vanishing (a coordinator restart) loses nothing but the un-drained
// job list.
package queue

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"branchreorder/internal/pipeline"
)

// Typed protocol errors. The HTTP layer maps them to status codes
// (409/410/404) and the client maps those codes back to these exact
// values, so a worker can errors.Is across the wire.
var (
	// ErrLeaseConflict: the presented token no longer owns the job —
	// its lease expired and another worker holds it now. Non-retryable:
	// the right move is to drop the job, not back off.
	ErrLeaseConflict = errors.New("queue: lease conflict: job is owned by another worker")
	// ErrGone: the job already reached a terminal state (done or
	// failed); there is nothing left to heartbeat. Non-retryable.
	ErrGone = errors.New("queue: job already finished")
	// ErrUnknownJob: the job ID was never enqueued here. Non-retryable.
	ErrUnknownJob = errors.New("queue: unknown job")
)

// JobSpec identifies one build+measure job of the evaluation matrix, in
// the same serializable vocabulary store.Record uses.
type JobSpec struct {
	Workload string           `json:"workload"`
	Opts     pipeline.Options `json:"options"`
}

// ID returns the job's deterministic identity: a hash of the canonical
// spec encoding. Identical specs get identical IDs, which is what makes
// Enqueue idempotent (re-submitting a matrix re-offers nothing already
// queued, running, or done).
func (s JobSpec) ID() string {
	data, _ := json.Marshal(s) // the spec is plain data; this cannot fail
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// State is one job's position in the lease protocol.
type State int

const (
	Pending State = iota // enqueued (or re-offered), waiting for a worker
	Leased               // held by a worker under a live deadline
	Done                 // completed; terminal
	Failed               // build failed on every attempt; terminal
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Leased:
		return "leased"
	case Done:
		return "done"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// job is the coordinator's record of one unit of work.
type job struct {
	id       string
	spec     JobSpec
	state    State
	token    string    // current lease token; kept after expiry for reclaim
	worker   string    // current/last lease holder
	deadline time.Time // lease expiry, meaningful only while Leased
	leases   int       // times handed out (metrics; >1 means re-offered)
	attempts int       // failed build attempts so far
	err      string    // last build error; final one when Failed
}

// Lease is what a worker gets back from Lease: the job, the token that
// proves ownership, and the TTL its heartbeats must beat.
type Lease struct {
	ID    string
	Spec  JobSpec
	Token string
	TTL   time.Duration
}

// Failure describes one permanently failed job for status reporting.
type Failure struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Error    string `json:"error"`
}

// Counts is a point-in-time snapshot of the queue, the payload of the
// status endpoint and the source of the /metrics queue section.
type Counts struct {
	Enqueued  int64 `json:"enqueued"`  // jobs ever accepted
	Pending   int64 `json:"pending"`   // waiting for a worker (queue depth)
	Leased    int64 `json:"leased"`    // held under a live lease
	Done      int64 `json:"done"`      // completed
	Failed    int64 `json:"failed"`    // terminally failed
	Expired   int64 `json:"expired"`   // leases that timed out and were re-offered
	Reclaimed int64 `json:"reclaimed"` // expired leases re-taken by their original holder
	// Drained: every job that was ever enqueued has reached a terminal
	// state. False for a queue nothing was ever enqueued on, so a worker
	// that connects before the matrix is submitted waits instead of
	// exiting.
	Drained bool `json:"drained"`
	// Workers maps worker ID to jobs it completed (counted at the done
	// transition only, so duplicates from expired leases credit nobody
	// twice).
	Workers map[string]int64 `json:"workers,omitempty"`
	// Failures carries every Failed job's last error.
	Failures []Failure `json:"failures,omitempty"`
}

// Queue is the coordinator state machine. It is safe for concurrent use;
// every public method takes the one lock, sweeps expired leases, then
// acts, so expiry needs no background timer.
type Queue struct {
	mu          sync.Mutex
	ttl         time.Duration
	maxAttempts int
	now         func() time.Time // injectable clock for tests

	jobs  map[string]*job
	order []string // job IDs in enqueue order; pending scans run oldest-first

	expired   int64
	reclaimed int64
	completed map[string]int64 // per-worker done transitions
}

// DefaultTTL is the lease TTL when New is given none.
const DefaultTTL = 60 * time.Second

// DefaultMaxAttempts is how many failed builds a job survives before it
// is marked Failed instead of re-offered.
const DefaultMaxAttempts = 3

// MaxTrackedWorkers bounds the per-worker completions map. A build farm
// has a handful of stable worker IDs, but a long soak (or a fleet whose
// IDs embed PIDs across restarts) can churn through arbitrarily many;
// without a cap every one would live in /metrics forever. Workers beyond
// the cap are aggregated under OverflowWorker, so totals stay exact
// while the map — and the /metrics page — stays bounded.
const MaxTrackedWorkers = 128

// OverflowWorker is the aggregate completions bucket for workers beyond
// MaxTrackedWorkers.
const OverflowWorker = "(other)"

// New returns an empty queue whose leases last ttl (DefaultTTL if <= 0)
// and whose jobs fail permanently after maxAttempts failed builds
// (DefaultMaxAttempts if <= 0).
func New(ttl time.Duration, maxAttempts int) *Queue {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	return &Queue{
		ttl:         ttl,
		maxAttempts: maxAttempts,
		now:         time.Now,
		jobs:        map[string]*job{},
		completed:   map[string]int64{},
	}
}

// TTL reports the lease TTL workers must heartbeat within.
func (q *Queue) TTL() time.Duration { return q.ttl }

// SetClock replaces the queue's time source — tests use it to expire
// leases without sleeping. Call before any concurrent use.
func (q *Queue) SetClock(now func() time.Time) { q.now = now }

// sweep re-offers every lease whose deadline has passed. Callers hold mu.
// The job keeps its token and worker, so the late holder can reclaim it
// or land a late Complete until someone else leases it.
func (q *Queue) sweep() {
	now := q.now()
	for _, id := range q.order {
		j := q.jobs[id]
		if j.state == Leased && now.After(j.deadline) {
			j.state = Pending
			q.expired++
		}
	}
}

// Enqueue adds every spec not already known (in any state) to the queue.
// It returns how many were new and how many were duplicates of existing
// jobs. Duplicates are not an error: re-submitting a matrix after a
// partial run is exactly how a farm resumes.
func (q *Queue) Enqueue(specs []JobSpec) (accepted, known int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweep()
	for _, spec := range specs {
		id := spec.ID()
		if _, ok := q.jobs[id]; ok {
			known++
			continue
		}
		q.jobs[id] = &job{id: id, spec: spec, state: Pending}
		q.order = append(q.order, id)
		accepted++
	}
	return accepted, known
}

// Lease hands the oldest pending job to worker under a fresh token and
// deadline. ok is false when nothing is pending; drained additionally
// reports that nothing is leased either (and something was enqueued), so
// a worker knows the difference between "wait" and "the grid is done".
func (q *Queue) Lease(worker string) (l Lease, ok, drained bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweep()
	for _, id := range q.order {
		j := q.jobs[id]
		if j.state != Pending {
			continue
		}
		j.state = Leased
		j.token = newToken()
		j.worker = worker
		j.deadline = q.now().Add(q.ttl)
		j.leases++
		return Lease{ID: j.id, Spec: j.spec, Token: j.token, TTL: q.ttl}, true, false
	}
	return Lease{}, false, q.drainedLocked()
}

// Heartbeat extends the lease (id, token). On a job whose lease expired
// but was not re-taken, the original holder reclaims it — a slow worker
// that missed one heartbeat window keeps its work. A token that lost the
// job gets ErrLeaseConflict; a finished job gets ErrGone.
func (q *Queue) Heartbeat(id, token string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweep()
	j, ok := q.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	switch j.state {
	case Done, Failed:
		return ErrGone
	case Leased:
		if j.token != token {
			return ErrLeaseConflict
		}
		j.deadline = q.now().Add(q.ttl)
		return nil
	default: // Pending
		if j.token == "" || j.token != token {
			return ErrLeaseConflict
		}
		// Expired but unclaimed: the holder is alive after all.
		j.state = Leased
		j.deadline = q.now().Add(q.ttl)
		q.reclaimed++
		return nil
	}
}

// Complete finishes the job (id, token). An empty buildErr marks it
// Done and credits worker; a non-empty one counts a failed attempt and
// either re-offers the job or, once the attempt budget is spent, marks
// it Failed. Complete on an already-Done job returns nil (idempotent:
// the duplicate build wrote identical content-addressed bytes); a token
// that lost the job to another worker gets ErrLeaseConflict.
func (q *Queue) Complete(id, token, worker, buildErr string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweep()
	j, ok := q.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	switch j.state {
	case Done:
		return nil
	case Failed:
		return ErrGone
	}
	// Leased or Pending-after-expiry: only the last issued token may
	// finish the job. A Pending job with a matching token is a late
	// completion by a holder whose lease expired unclaimed — accept it,
	// the work is real.
	if j.token == "" || j.token != token {
		return ErrLeaseConflict
	}
	if buildErr != "" {
		j.attempts++
		j.err = buildErr
		if j.attempts >= q.maxAttempts {
			j.state = Failed
		} else {
			j.state = Pending
			j.token = "" // a failed attempt surrenders the lease entirely
		}
		return nil
	}
	j.state = Done
	j.worker = worker
	q.completed[q.trackedWorker(worker)]++
	return nil
}

// trackedWorker returns the completions-map key for worker: the worker
// itself while the map has room (or already holds it), the overflow
// bucket once more distinct IDs have completed jobs than the map — and
// the /metrics page rendered from it — should ever grow.
func (q *Queue) trackedWorker(worker string) string {
	if _, ok := q.completed[worker]; ok {
		return worker
	}
	if len(q.completed) >= MaxTrackedWorkers {
		return OverflowWorker
	}
	return worker
}

// Counts snapshots the queue.
func (q *Queue) Counts() Counts {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweep()
	c := Counts{
		Enqueued:  int64(len(q.order)),
		Expired:   q.expired,
		Reclaimed: q.reclaimed,
	}
	for _, id := range q.order {
		j := q.jobs[id]
		switch j.state {
		case Pending:
			c.Pending++
		case Leased:
			c.Leased++
		case Done:
			c.Done++
		case Failed:
			c.Failed++
			c.Failures = append(c.Failures, Failure{ID: j.id, Workload: j.spec.Workload, Error: j.err})
		}
	}
	c.Drained = c.Enqueued > 0 && c.Pending == 0 && c.Leased == 0
	if len(q.completed) > 0 {
		c.Workers = make(map[string]int64, len(q.completed))
		for w, n := range q.completed {
			c.Workers[w] = n
		}
	}
	return c
}

// drainedLocked reports whether every enqueued job is terminal. Callers
// hold mu and have swept.
func (q *Queue) drainedLocked() bool {
	if len(q.order) == 0 {
		return false
	}
	for _, id := range q.order {
		if s := q.jobs[id].state; s == Pending || s == Leased {
			return false
		}
	}
	return true
}

// Leases reports how many times job id has been handed out — tests use
// it to assert nothing was double-leased without an expiry.
func (q *Queue) Leases(id string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok {
		return j.leases
	}
	return 0
}

// WorkerCompletions returns the per-worker done transitions, keys
// sorted, for deterministic /metrics rendering.
func (q *Queue) WorkerCompletions() []struct {
	Worker string
	Done   int64
} {
	q.mu.Lock()
	defer q.mu.Unlock()
	workers := make([]string, 0, len(q.completed))
	for w := range q.completed {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	out := make([]struct {
		Worker string
		Done   int64
	}, len(workers))
	for i, w := range workers {
		out[i].Worker = w
		out[i].Done = q.completed[w]
	}
	return out
}

// newToken returns an unguessable lease token. The fallback only exists
// for platforms where crypto/rand fails, which Go treats as fatal
// anyway; tokens need uniqueness, not secrecy, inside the trust
// boundary brstored already assumes.
func newToken() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("queue: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
