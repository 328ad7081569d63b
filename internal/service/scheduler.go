package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// JobState is the lifecycle of a scheduled solve.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Job is one unit of scheduled work. All fields behind mu; read via Status.
type Job struct {
	ID   string
	req  *Request
	sync bool // synchronous (RunSync) job: dropped from the map on finish

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// deadline is the absolute wall-clock bound derived from the request's
	// DeadlineMS at creation (zero = none). A job still queued past it is
	// shed instead of wasting a worker.
	deadline time.Time

	mu        sync.Mutex
	state     JobState
	result    *Result
	err       error // original error (preserves errors.Is chains)
	errMsg    string
	createdAt time.Time
	startedAt time.Time
	endedAt   time.Time
}

// JobStatus is the wire form of a job's state (GET /v1/jobs/{id}).
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Progress timestamps (unix milliseconds; 0 when not reached yet) let
	// pollers compute queue wait and run time.
	CreatedMS int64 `json:"created_ms"`
	StartedMS int64 `json:"started_ms,omitempty"`
	EndedMS   int64 `json:"ended_ms,omitempty"`
	// ElapsedMS is time since creation for live jobs, total lifetime for
	// finished ones.
	ElapsedMS int64 `json:"elapsed_ms"`
	// DeadlineUnixMS is the absolute request deadline (unix milliseconds;
	// 0 = none), so a poller can tell "still solving" from "about to be
	// shed" without knowing the queue's state.
	DeadlineUnixMS int64   `json:"deadline_unix_ms,omitempty"`
	Result         *Result `json:"result,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		State:     j.state,
		CreatedMS: j.createdAt.UnixMilli(),
		Result:    j.result,
		Error:     j.errMsg,
	}
	if !j.deadline.IsZero() {
		st.DeadlineUnixMS = j.deadline.UnixMilli()
	}
	if !j.startedAt.IsZero() {
		st.StartedMS = j.startedAt.UnixMilli()
	}
	if !j.endedAt.IsZero() {
		st.EndedMS = j.endedAt.UnixMilli()
		st.ElapsedMS = j.endedAt.Sub(j.createdAt).Milliseconds()
	} else {
		st.ElapsedMS = time.Since(j.createdAt).Milliseconds()
	}
	return st
}

// Cancel aborts the job: a queued job is marked cancelled immediately, a
// running one has its context cancelled (which propagates into the
// branch-and-bound search) and is marked cancelled when the worker returns.
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	if j.state == JobQueued {
		j.state = JobCancelled
		j.endedAt = time.Now()
	}
	j.mu.Unlock()
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Scheduler errors.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrShutdown  = errors.New("service: scheduler shut down")
	// ErrDeadlineShed marks a job dropped without running because its
	// request deadline had already expired while it sat in the queue.
	ErrDeadlineShed = errors.New("service: job shed: deadline expired while queued")
)

// Scheduler is the bounded worker pool: Submit enqueues asynchronous jobs,
// RunSync funnels synchronous requests through the same queue so one knob
// bounds the service's total solve concurrency.
type Scheduler struct {
	solve func(ctx context.Context, req *Request) (*Result, error)

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // FIFO of finished job IDs for bounded retention
	closed   bool
	running  int
	retain   int

	// onShed, onPanic and onCancel are observability hooks the server
	// wires up (metrics + logs); nil is fine. onCancel runs once for every
	// job that ends cancelled, whether it was cancelled queued or running.
	onShed   func(jobID string)
	onPanic  func(jobID string, v any, stack []byte)
	onCancel func(jobID string)
}

// NewScheduler starts workers goroutines over a queue of queueCap jobs.
// solve is the request executor (the server injects the cache-aware path).
func NewScheduler(workers, queueCap int,
	solve func(ctx context.Context, req *Request) (*Result, error)) *Scheduler {
	if workers <= 0 {
		workers = 1
	}
	if queueCap <= 0 {
		queueCap = 256
	}
	s := &Scheduler{
		solve:  solve,
		queue:  make(chan *Job, queueCap),
		jobs:   make(map[string]*Job),
		retain: 4096,
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker(i)
	}
	return s
}

func (s *Scheduler) worker(id int) {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(id, job)
	}
}

func (s *Scheduler) runJob(workerID int, job *Job) {
	job.mu.Lock()
	if job.state != JobQueued {
		// Cancelled while queued: nothing to run, terminal state already set.
		job.mu.Unlock()
		s.finish(job)
		return
	}
	if !job.deadline.IsZero() && time.Now().After(job.deadline) {
		// Self-protection: the request's deadline expired while the job sat
		// in the queue. Shed it — no result could reach the client in time,
		// so running it would only starve jobs that can still meet theirs.
		job.state = JobFailed
		job.err = ErrDeadlineShed
		job.errMsg = ErrDeadlineShed.Error()
		job.endedAt = time.Now()
		job.mu.Unlock()
		if s.onShed != nil {
			s.onShed(job.ID)
		}
		job.cancel()
		s.finish(job)
		return
	}
	job.state = JobRunning
	job.startedAt = time.Now()
	job.mu.Unlock()

	s.mu.Lock()
	s.running++
	s.mu.Unlock()

	// Label the solve for profiling (engine + scheduler worker; the solver
	// layers add phase and search-worker labels underneath) and thread the
	// job ID through as the request ID for logs and the flight recorder.
	var res *Result
	var err error
	ctx := obs.WithRequestID(job.ctx, job.ID)
	// The worker runs the solve under recover(): a panic anywhere in the
	// solve path fails this job (stack captured) and the daemon keeps
	// serving. The cache-aware path recovers solver panics itself, closer
	// to the fault; this is the backstop for everything else.
	func() {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, fmt.Errorf("service: worker panic: %v", r)
				if s.onPanic != nil {
					s.onPanic(job.ID, r, debug.Stack())
				}
			}
		}()
		pprof.Do(ctx, pprof.Labels(
			"engine", job.req.Engine, "worker", strconv.Itoa(workerID),
		), func(ctx context.Context) {
			res, err = s.solve(ctx, job.req)
		})
	}()

	s.mu.Lock()
	s.running--
	s.mu.Unlock()

	job.mu.Lock()
	job.endedAt = time.Now()
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(job.ctx.Err(), context.Canceled)):
		// Deadline expiry is deliberately NOT cancellation: a deadline_ms
		// job that errors out lands in JobFailed with its deadline error.
		job.state = JobCancelled
		job.err = context.Canceled
		job.errMsg = context.Canceled.Error()
	case err != nil:
		job.state = JobFailed
		job.err = err
		job.errMsg = err.Error()
	default:
		job.state = JobDone
		job.result = res
	}
	job.mu.Unlock()
	job.cancel() // release the context's resources
	s.finish(job)
}

// finish publishes a job's terminal state: it reports a cancelled job to
// onCancel — the one place a cancellation is counted, so a job cancelled
// while running is not counted again by its solve's cancelled outcome, and
// a cancel of an already finished job counts nothing — then wakes the
// job's waiters and retires it.
func (s *Scheduler) finish(job *Job) {
	job.mu.Lock()
	cancelled := job.state == JobCancelled
	job.mu.Unlock()
	if cancelled && s.onCancel != nil {
		s.onCancel(job.ID)
	}
	close(job.done)
	s.retire(job)
}

// retire records a finished job for bounded retention so the jobs map
// cannot grow without limit under sustained async traffic. Synchronous jobs
// are dropped immediately: their caller already holds the result.
func (s *Scheduler) retire(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if job.sync {
		delete(s.jobs, job.ID)
		return
	}
	if _, tracked := s.jobs[job.ID]; !tracked {
		return
	}
	s.finished = append(s.finished, job.ID)
	for len(s.finished) > s.retain {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

func newJob(ctx context.Context, req *Request) *Job {
	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		ID:        newJobID(),
		req:       req,
		ctx:       jctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     JobQueued,
		createdAt: time.Now(),
	}
	if req.DeadlineMS > 0 {
		j.deadline = j.createdAt.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	return j
}

func newJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: job id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// enqueue registers and queues a job under the scheduler lock, so a send
// can never race Shutdown's close of the queue.
func (s *Scheduler) enqueue(job *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShutdown
	}
	select {
	case s.queue <- job:
		s.jobs[job.ID] = job
		return nil
	default:
		return ErrQueueFull
	}
}

// Submit enqueues an asynchronous job (POST /v1/jobs). The job's lifetime
// is detached from the caller's context; cancel it via Job.Cancel.
func (s *Scheduler) Submit(req *Request) (*Job, error) {
	job := newJob(context.Background(), req)
	if err := s.enqueue(job); err != nil {
		return nil, err
	}
	return job, nil
}

// RunSync pushes a request through the worker pool and waits for it,
// propagating ctx cancellation (client disconnects abort the solve unless
// other requests share it via the cache's singleflight).
func (s *Scheduler) RunSync(ctx context.Context, req *Request) (*Result, error) {
	job := newJob(ctx, req)
	job.sync = true
	if err := s.enqueue(job); err != nil {
		return nil, err
	}
	select {
	case <-job.Done():
		job.mu.Lock()
		state, res, jerr := job.state, job.result, job.err
		job.mu.Unlock()
		switch state {
		case JobDone:
			return res, nil
		case JobCancelled:
			return nil, context.Canceled
		default:
			return nil, jerr
		}
	case <-ctx.Done():
		// Don't wait for a worker to dequeue the corpse: Cancel already
		// marked a queued job terminal, and a running one has had its
		// context cancelled. Returning now frees the handler goroutine
		// (and graceful shutdown) immediately; the worker that later pops
		// the job just retires it.
		job.Cancel()
		return nil, ctx.Err()
	}
}

// Job resolves a job by ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// QueueDepth returns the number of jobs waiting in the queue.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// Running returns the number of jobs currently executing.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Shutdown stops accepting work, cancels everything in flight, and waits
// for the workers to drain (graceful daemon shutdown).
func (s *Scheduler) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue) // safe: every send happens under mu with closed checked
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	s.wg.Wait()
}
