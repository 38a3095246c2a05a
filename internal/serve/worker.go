package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serve/tenant"
	"repro/internal/tensor"
)

// request is one queued single-image inference.
type request struct {
	img *tensor.Tensor // flat C*H*W payload, already validated
	enq time.Time
	fut *future
	tq  *tenantQueue // owning tenant sub-queue, set at enqueue
}

// pool serves one stack configuration: a weighted-fair intake, a
// batcher, and Replicas workers each owning a private core.Instance.
type pool struct {
	name  string
	cfg   Config
	insts []*core.Instance
	meter *tenant.Meter

	intake  *intake
	batches chan []*request

	mu      sync.Mutex // guards closed against concurrent submit/close
	closed  bool
	subs    sync.WaitGroup // in-flight submitters; close() waits on it before closing queue
	wg      sync.WaitGroup // batcher + workers
	drained chan struct{}  // closed once the shutdown drain has fully completed

	// Serving statistics (see stats.go).
	completed    atomic.Uint64
	failed       atomic.Uint64
	batchesDone  atomic.Uint64
	batchesTimed atomic.Uint64 // successful batches behind batchNanos
	batchNanos   atomic.Int64  // summed wall time of successful forward passes
	pending      atomic.Int64  // admitted requests not yet executing (queued + coalescing)
	firstEnqueue atomic.Int64  // enqueue ns of the first served request, 0 = none yet
	lastDone     atomic.Int64  // ns since epoch of the latest resolution
	lat          *metrics.LatencyRecorder

	// Geometry and cost, cached from the instantiated network.
	chw          tensor.Shape // per-image input shape
	imgLen       int          // elements per image
	replicaMB    float64      // per-replica footprint at MaxBatch
	modelSeconds float64      // modelled single-image time (paper platform)
	// measuredSeconds is the best-of warmed batch-1 compiled-plan time
	// on this host, probed once at pool construction. It is the router's
	// cost rank: a quantised variant is ordered by what it actually
	// costs here, not by the paper's tables.
	measuredSeconds float64
}

// measurePlanSeconds compiles the instance's batch-1 plan, warms it and
// returns the best of a few timed runs — a cheap, low-variance probe of
// single-image cost on this host. A plan that does not compile is an
// error: every request would need one.
func measurePlanSeconds(inst *core.Instance) (float64, error) {
	plan, err := inst.PlanFor(1)
	if err != nil {
		return 0, fmt.Errorf("compiling batch-1 plan: %w", err)
	}
	plan.Run() // warm: page in scratch, resolve lazy weight views
	best := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		plan.Run()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best.Seconds(), nil
}

// newPool instantiates the stack Replicas times and starts the batcher
// and worker goroutines. The meter supplies tenant weights for the
// DRR intake and absorbs the pool's per-batch model-second charges; a
// nil meter gets a default (anonymous-only, no limits) one.
func newPool(name string, stack core.Config, cfg Config, meter *tenant.Meter) (*pool, error) {
	proto, err := core.Instantiate(stack)
	if err != nil {
		return nil, err
	}
	insts := []*core.Instance{proto}
	for i := 1; i < cfg.Replicas; i++ {
		rep, err := proto.Replicate()
		if err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		insts = append(insts, rep)
	}
	if meter == nil {
		meter, _ = tenant.NewMeter(tenant.Config{})
	}
	p := &pool{
		name:         name,
		cfg:          cfg,
		insts:        insts,
		meter:        meter,
		intake:       newIntake(cfg.QueueCap, meter.Weight),
		batches:      make(chan []*request),
		drained:      make(chan struct{}),
		lat:          metrics.NewLatencyRecorder(cfg.LatencyWindow),
		chw:          proto.Net.InputShape.Clone(),
		imgLen:       proto.Net.InputShape.NumElements(),
		replicaMB:    metrics.Measure(proto.Net, cfg.MaxBatch, proto.Config.Format()).MB(),
		modelSeconds: proto.Simulate(),
	}
	// Probe real single-image cost before the worker goroutines start,
	// while the prototype instance is still exclusively ours.
	if p.measuredSeconds, err = measurePlanSeconds(proto); err != nil {
		return nil, err
	}
	p.wg.Add(1)
	go p.batchLoop()
	for _, inst := range insts {
		p.wg.Add(1)
		go p.workerLoop(inst)
	}
	return p, nil
}

// submitMany validates and enqueues a group of images as consecutive
// requests — one enqueue burst, one future per image. Back-to-back
// enqueueing is what lets the batcher coalesce a multi-image request
// into as few forward passes as MaxBatch allows. Enqueues block (under
// ctx) when the intake is at capacity; on a ctx abort the images
// enqueued so far stay accepted and execute (their futures are simply
// abandoned), exactly like a single accepted submission whose waiter
// gives up.
func (p *pool) submitMany(ctx context.Context, tid string, imgs []*tensor.Tensor) ([]*future, error) {
	for _, img := range imgs {
		if err := p.checkShape(img); err != nil {
			return nil, err
		}
	}

	// Registering in subs under the same lock as the closed check lets
	// close() order itself after every admitted submitter: it flips
	// closed, waits for subs to drain, and only then closes the intake
	// — so no push below can land after close. Submitters blocked on a
	// full intake make progress because the batcher keeps popping until
	// the intake is closed.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.subs.Add(1)
	p.mu.Unlock()
	defer p.subs.Done()

	futs := make([]*future, len(imgs))
	for i, img := range imgs {
		r := &request{img: img, enq: time.Now(), fut: newFuture()}
		// pending is raised before the push (and lowered again on a
		// context abort) so it always bounds the true in-flight count
		// from above: a batch that executes between push and a late
		// increment would otherwise drive the counter transiently
		// negative.
		p.pending.Add(1)
		if err := p.intake.put(ctx, tid, r); err != nil {
			p.pending.Add(-1)
			if i > 0 {
				return nil, fmt.Errorf("serve: %s: %d of %d images enqueued before abort: %w",
					p.name, i, len(imgs), err)
			}
			return nil, err
		}
		futs[i] = r.fut
	}
	return futs, nil
}

// trySubmitMany is the admission-controlled group enqueue the router
// uses: it never blocks on a full pool. The whole group is admitted
// against the tenant's live capacity share at once (tenant in-flight +
// N ≤ share, where share = QueueCap × weight / active weight — exactly
// QueueCap when the tenant is alone, counting both queued requests and
// those coalescing in the open batch) or refused as a unit with an
// *OverloadedError whose RetryAfter estimates the backlog's drain
// time. A multi-image request is never half-shed, and a saturating
// tenant sheds at its share while others still admit.
func (p *pool) trySubmitMany(tid string, imgs []*tensor.Tensor) ([]*future, error) {
	for _, img := range imgs {
		if err := p.checkShape(img); err != nil {
			return nil, err
		}
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.subs.Add(1)
	p.mu.Unlock()
	defer p.subs.Done()

	// pending (the pool-wide inclusive depth behind the router's live
	// gate and RetryAfter estimates) is raised before admission and
	// rolled back on refusal, bounding the true in-flight count from
	// above as in submitMany.
	n := int64(len(imgs))
	reqs := make([]*request, len(imgs))
	futs := make([]*future, len(imgs))
	now := time.Now()
	for i, img := range imgs {
		r := &request{img: img, enq: now, fut: newFuture()}
		reqs[i] = r
		futs[i] = r.fut
	}
	p.pending.Add(n)
	if !p.intake.tryPut(tid, reqs) {
		p.pending.Add(-n)
		return nil, p.overloaded()
	}
	return futs, nil
}

// overloaded builds the typed admission error: RetryAfter is the
// estimated time for the pool's workers to drain the current backlog
// (pending requests over MaxBatch-sized waves across the replicas, at
// the observed mean batch wall time), floored at one millisecond.
func (p *pool) overloaded() *OverloadedError {
	d := p.drainEstimate()
	if d < time.Millisecond {
		// Cold pool (no mean yet) or empty backlog: still hint a
		// non-zero backoff.
		d = time.Millisecond
	}
	return &OverloadedError{Stack: p.name, RetryAfter: d}
}

// drainEstimate returns the projected time to execute everything
// currently admitted and waiting — zero when the backlog is empty or
// the pool has no observed batch time yet.
func (p *pool) drainEstimate() time.Duration {
	return p.waveTime(p.pending.Load())
}

// waveTime projects how long n requests take to execute: MaxBatch-sized
// waves across the replicas at the observed mean batch wall time (0
// until the first batch completes). Waves execute sequentially on each
// worker, so the projection is whole turns — a lone request still pays
// one full batch time no matter how many replicas are idle.
func (p *pool) waveTime(n int64) time.Duration {
	mean := p.meanBatchTime()
	if mean <= 0 || n <= 0 {
		return 0
	}
	waves := (n + int64(p.cfg.MaxBatch) - 1) / int64(p.cfg.MaxBatch)
	turns := (waves + int64(len(p.insts)) - 1) / int64(len(p.insts))
	return mean * time.Duration(turns)
}

// meanBatchTime is the observed mean wall time of one successful
// batched forward pass (0 until the first one completes). Failed
// batches are excluded from both numerator and denominator — an engine
// panic resolves in microseconds and would otherwise drag admission
// estimates far below real capacity.
func (p *pool) meanBatchTime() time.Duration {
	b := p.batchesTimed.Load()
	if b == 0 {
		return 0
	}
	return time.Duration(p.batchNanos.Load() / int64(b))
}

// estimatedLatency projects the end-to-end latency a newly admitted
// group of n requests would see: the waves needed to execute the
// backlog plus the group itself (an idle pool therefore projects one
// batch for a lone request, not two). ok is false until the pool has
// executed at least one batch.
func (p *pool) estimatedLatency(n int) (time.Duration, bool) {
	if p.meanBatchTime() <= 0 {
		return 0, false
	}
	return p.waveTime(p.pending.Load() + int64(n)), true
}

// checkShape accepts C×H×W or 1×C×H×W matching the stack's input.
func (p *pool) checkShape(img *tensor.Tensor) error {
	if img == nil {
		return fmt.Errorf("serve: %s: nil image", p.name)
	}
	s := img.Shape()
	if s.Rank() == 4 && s[0] == 1 {
		s = s[1:]
	}
	if !s.Equal(p.chw) {
		return fmt.Errorf("serve: %s: image shape %v does not match input %v", p.name, img.Shape(), p.chw)
	}
	return nil
}

// workerLoop executes batches on this worker's private replica until
// the batch channel closes. The replica's compiled plans are the
// scratch-reuse this loop was designed around: batches assemble
// directly into the plan's input arena, and steady-state serving
// performs zero engine-side heap allocations. The full-batch plan is
// compiled up front so the first requests don't pay compilation (and,
// under AutoAlgo, per-geometry kernel timing) on the request path;
// partial-batch plans compile lazily on first occurrence of each size.
func (p *pool) workerLoop(inst *core.Instance) {
	defer p.wg.Done()
	// A compile error here is not fatal: runBatch re-attempts per batch
	// and fails those requests with the error instead.
	_, _ = inst.PlanFor(p.cfg.MaxBatch)
	for batch := range p.batches {
		p.runBatch(inst, batch)
	}
}

// runBatch assembles the batch into the plan's input arena, runs one
// batched plan execution, and resolves every request's future with its
// logit row. An engine panic or malformed output fails the batch's
// requests rather than the server; every future is resolved exactly
// once either way.
func (p *pool) runBatch(inst *core.Instance, batch []*request) {
	n := len(batch)
	// These requests are now executing, not waiting: admission depth,
	// RetryAfter estimates and the tenants' capacity shares stop
	// counting them.
	p.pending.Add(-int64(n))
	for _, r := range batch {
		r.tq.pending.Add(-1)
	}
	res, err := p.runGuarded(inst, batch)
	if err == nil && (res.Output.NumElements() == 0 || res.Output.NumElements()%n != 0) {
		err = fmt.Errorf("serve: %s: engine returned %d outputs for a batch of %d",
			p.name, res.Output.NumElements(), n)
	}
	done := time.Now()
	// The throughput epoch is the earliest enqueue time over every
	// served request (batch[0] is the oldest in its batch, but with
	// multiple replicas a later-enqueued batch may finish first, so
	// take an atomic minimum). Stamping here, before the completion
	// counters, means any snapshot that observes completed work also
	// observes a non-zero epoch.
	enq := batch[0].enq.UnixNano()
	for {
		cur := p.firstEnqueue.Load()
		if cur != 0 && cur <= enq {
			break
		}
		if p.firstEnqueue.CompareAndSwap(cur, enq) {
			break
		}
	}
	// Symmetrically, lastDone is an atomic maximum: a preempted worker
	// must not drag the window end backwards past a faster sibling.
	dn := done.UnixNano()
	for {
		cur := p.lastDone.Load()
		if cur >= dn {
			break
		}
		if p.lastDone.CompareAndSwap(cur, dn) {
			break
		}
	}
	if err != nil {
		// Request counters precede the batch counter so a concurrent
		// snapshot never sees a batch whose requests aren't counted yet
		// (which would transiently deflate MeanBatchOccupancy).
		p.failed.Add(uint64(n))
		p.batchesDone.Add(1)
		for _, r := range batch {
			r.fut.resolve(Result{Stack: p.name, BatchSize: n, Err: err})
		}
		return
	}

	classes := res.Output.NumElements() / n
	out := res.Output.Data()
	p.completed.Add(uint64(n))
	p.batchNanos.Add(int64(res.Elapsed))
	p.batchesTimed.Add(1)
	p.batchesDone.Add(1)
	// Bill the batch's measured wall time to its tenants in equal
	// per-image shares: batching amortises cost, so tenants sharing a
	// batch split it rather than each paying the full pass.
	per := res.Elapsed.Seconds() / float64(n)
	for _, r := range batch {
		p.meter.ChargeModelSeconds(r.tq.id, per)
	}
	for i, r := range batch {
		row := tensor.New(1, classes)
		copy(row.Data(), out[i*classes:(i+1)*classes])
		lat := done.Sub(r.enq)
		p.lat.Observe(lat)
		r.fut.resolve(Result{
			Output:    row,
			Stack:     p.name,
			Class:     row.ArgMax(),
			BatchSize: n,
			Latency:   lat,
			Compute:   res.Elapsed,
		})
	}
}

// runGuarded fetches (or compiles) the batch-size plan, assembles the
// requests into its input buffer, and executes it, converting an
// engine panic into an error so the recover cannot fire after result
// bookkeeping began.
func (p *pool) runGuarded(inst *core.Instance, batch []*request) (res core.RunResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("serve: %s: engine panic: %v", p.name, rec)
		}
	}()
	plan, err := inst.PlanFor(len(batch))
	if err != nil {
		return core.RunResult{}, fmt.Errorf("serve: %s: compiling batch-%d plan: %w", p.name, len(batch), err)
	}
	// Assemble straight into the plan's arena — the batch tensor is
	// engine-owned memory, so steady-state serving copies each image
	// exactly once and allocates nothing.
	flat := plan.Input().Data()
	for i, r := range batch {
		copy(flat[i*p.imgLen:(i+1)*p.imgLen], r.img.Data())
	}
	start := time.Now()
	out := plan.Run()
	return core.RunResult{Output: out, Elapsed: time.Since(start)}, nil
}

// close refuses new submissions, waits out in-flight submitters, lets
// the batcher drain the intake (flushing a final partial batch), and
// waits for the workers to finish every accepted request. Concurrent
// callers all block until the drain has completed — losing the race to
// initiate shutdown still means winning the guarantee it provides.
func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.drained
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.subs.Wait()
	p.intake.close()
	p.wg.Wait()
	close(p.drained)
}
