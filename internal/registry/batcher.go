package registry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"harl/internal/tunelog"
)

// The publish batcher is a group commit. Every publisher — N concurrent
// daemon sessions, a CLI run, a Replace heal — queues its record with a
// per-caller response channel; a single flusher goroutine takes the first
// pending request plus whatever else is already queued and services them with
// ONE backend append: one lock acquisition, one journal open (and, sharded,
// one header write) per touched journal, however many sessions published. The
// requests that arrive while that append holds the file lock are the next
// batch. A lone publisher waits for nothing but its own append; concurrent
// publishers stop serializing one file lock apiece.

// maxBatch caps the records one flush carries, so a deep backlog cannot hold
// the file lock (and every caller in the batch) for an unbounded append.
const maxBatch = 64

type publishReq struct {
	rec  tunelog.Record
	resp chan publishResp
}

type publishResp struct {
	improved bool
	err      error
}

type batcher struct {
	b Backend

	mu     sync.RWMutex // guards closed vs in-flight sends on ch
	closed bool
	ch     chan publishReq
	done   chan struct{} // closed when the flusher has drained and exited

	batches atomic.Int64
	records atomic.Int64
}

func newBatcher(b Backend) *batcher {
	bt := &batcher{
		b: b,
		// Two batches deep: a full next batch can queue behind the one in
		// flight before publishers block on the send instead of on their reply.
		ch:   make(chan publishReq, 2*maxBatch),
		done: make(chan struct{}),
	}
	go bt.run()
	return bt
}

// publish queues one record and blocks until its batch is appended. The read
// lock is held across the send so close cannot close ch under a sender; the
// flusher never takes mu, so a full ch always drains.
func (bt *batcher) publish(rec tunelog.Record) (bool, error) {
	req := publishReq{rec: rec, resp: make(chan publishResp, 1)}
	bt.mu.RLock()
	if bt.closed {
		bt.mu.RUnlock()
		return false, fmt.Errorf("registry: closed")
	}
	bt.ch <- req
	bt.mu.RUnlock()
	res := <-req.resp
	return res.improved, res.err
}

// run is the flusher loop: take the first pending request, add what is already
// queued without waiting for more, flush. Intake closing drains what remains
// into final batches.
func (bt *batcher) run() {
	defer close(bt.done)
	for first := range bt.ch {
		batch := []publishReq{first}
	drain:
		for len(batch) < maxBatch {
			select {
			case req, ok := <-bt.ch:
				if !ok {
					break drain
				}
				batch = append(batch, req)
			default:
				break drain
			}
		}
		bt.flush(batch)
	}
}

// flush services one batch with a single backend append and fans the
// per-record outcomes back to their callers. A batch-level failure reaches
// every caller in the batch: the backend reloaded from disk, so retrying a
// record that did land is a duplicate no-op, and retrying one that did not
// re-appends it.
func (bt *batcher) flush(batch []publishReq) {
	recs := make([]tunelog.Record, len(batch))
	for i, req := range batch {
		recs[i] = req.rec
	}
	improved, err := bt.b.AppendBatch(recs)
	bt.batches.Add(1)
	bt.records.Add(int64(len(batch)))
	for i, req := range batch {
		res := publishResp{err: err}
		if err == nil {
			res.improved = improved[i]
		}
		req.resp <- res
	}
}

func (bt *batcher) stats() (batches, records int64) {
	return bt.batches.Load(), bt.records.Load()
}

// close stops intake, waits for pending publishes to be appended, and
// stops the flusher. Idempotent.
func (bt *batcher) close() {
	bt.mu.Lock()
	if !bt.closed {
		bt.closed = true
		close(bt.ch)
	}
	bt.mu.Unlock()
	<-bt.done
}
