package campaign

import (
	"context"
	"sync"

	"rescue/internal/obs"
)

// Run-queue instrumentation. Depth tracks runs admitted but not yet
// taken by an executor; the wait histogram records how long an admitted
// run sat in the queue before an executor picked it up — the number the
// load-test harness watches to find the admission/concurrency knee.
var (
	obsServerQueueDepth = obs.NewGauge("campaign_server_run_queue_depth",
		"Campaign runs admitted to the server queue but not yet executing.")
	obsServerQueueWait = obs.NewHistogram("campaign_server_queue_wait_seconds",
		"Time an admitted run spent queued before an executor took it.", obs.DurationBuckets)
)

// serverRun is one admitted campaign: its durable run directory, the
// per-run Service holding its lifecycle state and answering the
// /runs/{id}/* endpoints, and what the server needs to execute or cancel
// it.
type serverRun struct {
	id  int
	dir string
	svc *Service

	mu     sync.Mutex
	ck     *Checkpoint        // open (and flock'd) from admission until execution ends
	cancel context.CancelFunc // non-nil while running
	// userCanceled records an explicit tenant DELETE while running: the
	// run directory is discarded even if a server drain races the unwind
	// (s.ctx.Err() alone cannot tell the two apart).
	userCanceled bool
	// queueSpan measures admission-to-execution latency.
	queueSpan obs.Span
}

// info assembles the run's public listing entry.
func (r *serverRun) info() RunInfo { return r.svc.runInfo(r.id, r.dir) }

// runQueue is the bounded admission queue between POST /runs and the
// executor pool: offer rejects (backpressure) when the bound is
// reached, take blocks until a run or shutdown, remove unqueues a run
// canceled before execution. All transitions keep the depth gauge
// exact.
type runQueue struct {
	mu       sync.Mutex
	capacity int
	items    []*serverRun
	wake     chan struct{} // capacity 1; signaled on offer and close
	closed   bool
}

func newRunQueue(capacity int) *runQueue {
	return &runQueue{capacity: capacity, wake: make(chan struct{}, 1)}
}

// offer appends the run. It fails when the queue is at capacity (the
// 429 path) or closed (the draining-server path); force bypasses the
// capacity bound — startup recovery must never drop a durable run just
// because it outnumbers the configured queue depth.
func (q *runQueue) offer(r *serverRun, force bool) bool {
	q.mu.Lock()
	if q.closed || (!force && len(q.items) >= q.capacity) {
		q.mu.Unlock()
		return false
	}
	r.queueSpan = obs.StartSpan(obsServerQueueWait)
	q.items = append(q.items, r)
	obsServerQueueDepth.Add(1)
	q.mu.Unlock()
	q.signal()
	return true
}

// take blocks until a run is available and returns it, or returns false
// once the queue is closed or ctx is done. A closed queue stops handing
// out runs even if items remain — drained runs stay queued on disk for
// the next server start.
func (q *runQueue) take(ctx context.Context) (*serverRun, bool) {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			q.signal() // cascade the close wake-up to any other takers
			return nil, false
		}
		if len(q.items) > 0 {
			r := q.items[0]
			q.items = q.items[1:]
			obsServerQueueDepth.Add(-1)
			more := len(q.items) > 0
			q.mu.Unlock()
			if more {
				q.signal() // other executors may be waiting too
			}
			r.queueSpan.End()
			return r, true
		}
		q.mu.Unlock()
		select {
		case <-q.wake:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// remove unqueues r if it has not been taken yet. False means an
// executor already holds it (the caller must rely on the run's own
// state to stop it).
func (q *runQueue) remove(r *serverRun) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, it := range q.items {
		if it == r {
			q.items = append(q.items[:i], q.items[i+1:]...)
			obsServerQueueDepth.Add(-1)
			r.queueSpan.End()
			return true
		}
	}
	return false
}

func (q *runQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close stops all hand-out: takers return false, offers fail. Items
// still queued keep their depth gauge contribution until drained.
func (q *runQueue) close() {
	q.mu.Lock()
	q.closed = true
	// The gauge must not keep counting runs this process will never
	// dispatch; they re-enter the gauge when a restart re-queues them.
	obsServerQueueDepth.Add(int64(-len(q.items)))
	q.mu.Unlock()
	q.signal()
}

// drainQueued empties the queue, returning the runs left behind (the
// graceful-shutdown path hands them back so their checkpoints can be
// closed while they stay resumable on disk).
func (q *runQueue) drainQueued() []*serverRun {
	q.mu.Lock()
	defer q.mu.Unlock()
	items := q.items
	q.items = nil
	if !q.closed {
		obsServerQueueDepth.Add(int64(-len(items)))
	}
	return items
}

func (q *runQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}
