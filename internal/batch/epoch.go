package batch

import (
	"context"
	"sort"
	"time"
)

// The epoch coordinator: a single goroutine that admits queued work in
// phases. Each epoch it (1) TTL-evicts expired finished jobs, (2) runs
// one deficit-round-robin admission pass over the per-tenant queues,
// (3) groups the admitted items by class — same protocol/family/size
// class — and dispatches them group by group, so items that share a
// cache key or a frozen instance run back to back and deduplicate
// through the singleflight layer, and (4) records the epoch metrics.
// Epochs fire on the interval deadline or early when EpochMaxItems are
// queued (flush on size or deadline).

func (m *Manager[R]) loop() {
	defer m.loopWG.Done()
	ticker := time.NewTicker(m.cfg.EpochInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.closeCh:
			m.finalEpoch()
			return
		case <-ticker.C:
		case <-m.wake:
		}
		m.epoch()
	}
}

// epoch runs one coordination phase.
func (m *Manager[R]) epoch() {
	start := time.Now()

	m.mu.Lock()
	// TTL retention: finished jobs expire oldest-first.
	cutoff := start.Add(-m.cfg.Retention)
	for len(m.finished) > 0 && m.finished[0].finished.Before(cutoff) {
		m.evictLocked(m.finished[0])
	}

	admitted := m.sched.admit(m.cfg.Quantum, m.cfg.TenantInFlight, m.cfg.EpochMaxItems)
	live := admitted[:0]
	for _, it := range admitted {
		if it.job.ctx.Err() != nil {
			// The job died (deadline, cancel, abandonment) while the item
			// sat queued: finish it here instead of wasting a dispatch.
			m.running++ // admit charged an in-flight slot; balance the release
			m.finishItemLocked(it, StatusCanceled, it.job.ctx.Err().Error(), true)
			continue
		}
		it.status = StatusRunning
		live = append(live, it)
	}
	m.running += len(live)
	if len(live) > 0 {
		// Group compatible work: stable sort by class keeps FIFO order
		// within a class, so identical cache keys dispatch adjacently.
		sort.SliceStable(live, func(i, j int) bool { return live[i].class < live[j].class })
	}
	m.mu.Unlock()

	if len(admitted) == 0 {
		return // idle tick: no epoch accounting for empty phases
	}

	groups := int64(0)
	prevClass := ""
	for i, it := range live {
		if i == 0 || it.class != prevClass {
			groups++
			prevClass = it.class
		}
	}
	m.add("epochs_total", 1)
	m.observe("epoch_batch_items", int64(len(admitted)))
	if groups > 0 {
		m.observe("epoch_batch_groups", groups)
	}

	// Admission ends here. It is observed before the dispatch loop, so
	// the histogram is written before any item can run: with an inline
	// Dispatch the last item would otherwise finish, and release a
	// waiter, before its epoch was accounted.
	m.observe("epoch_admit_ns", time.Since(start).Nanoseconds())
	for _, it := range live {
		it := it
		m.add("tenant_admitted_total{tenant="+it.job.tenant+"}", 1)
		m.cfg.Dispatch(func() { m.runItem(it) })
	}
}

// finalEpoch drains the queues at Close: every queued item is canceled
// so jobs reach a terminal state and watchers unblock.
func (m *Manager[R]) finalEpoch() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		admitted := m.sched.admit(m.cfg.Quantum, 1<<30, 1<<30)
		if len(admitted) == 0 {
			return
		}
		for _, it := range admitted {
			m.running++
			m.finishItemLocked(it, StatusCanceled, ErrClosed.Error(), true)
		}
	}
}

// runItem executes one admitted item on a dispatch goroutine with a
// per-item child context of the job context — canceled when the job's
// deadline fires, the job is canceled or abandoned, or the item
// finishes.
func (m *Manager[R]) runItem(it *item[R]) {
	m.observe("batch_item_wait_ns", time.Since(it.enqueued).Nanoseconds())
	ictx, cancel := context.WithCancel(it.job.ctx)
	defer cancel()

	if err := ictx.Err(); err != nil {
		m.mu.Lock()
		m.finishItemLocked(it, StatusCanceled, err.Error(), true)
		m.mu.Unlock()
		return
	}
	res, err := it.run(ictx)

	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case err == nil:
		it.result = res
		m.finishItemLocked(it, StatusDone, "", true)
	case it.job.ctx.Err() != nil:
		m.finishItemLocked(it, StatusCanceled, err.Error(), true)
	default:
		m.finishItemLocked(it, StatusError, err.Error(), true)
	}
}
