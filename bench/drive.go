package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// phase is the outcome of one measured phase of a workload: what was
// attempted, what came back right, and how long each op took.
type phase struct {
	Attempted int            `json:"attempted"`
	Correct   int            `json:"correct"`
	Failed    int            `json:"failed"`
	WallS     float64        `json:"wall_s"`
	AllocKB   float64        `json:"alloc_kb"` // TotalAlloc delta over the phase, whole process
	Latency   latencySummary `json:"latency"`
	// Lateness is how far behind its schedule the open-loop generator
	// sent each request; nil for closed loops. Backlog is how many
	// requests were still unanswered when the last one was sent: a
	// figure that grows with the run when the server is not keeping up.
	Lateness *latencySummary `json:"generator_lateness,omitempty"`
	Backlog  int             `json:"backlog_at_end"`
	// FirstError is the first failure's message, for the operator.
	FirstError string `json:"first_error,omitempty"`

	latencies []time.Duration
	logs      []*outLog // every output row, for the oracle
}

// OpsPerS is goodput: correct ops per second of measured wall time.
func (p *phase) OpsPerS() float64 { return float64(p.Correct) / p.WallS }

// AllocKBPerOp is the allocation volume per attempted op.
func (p *phase) AllocKBPerOp() float64 { return p.AllocKB / float64(p.Attempted) }

// FailShare is failed ops over attempted ops.
func (p *phase) FailShare() float64 { return float64(p.Failed) / float64(p.Attempted) }

// collector gathers per-op outcomes from the loops below. Each caller
// goroutine owns one, so the measured path takes no lock.
type collector struct {
	lat        []time.Duration
	log        *outLog
	failed     int
	firstError error
}

// newCollector sizes a collector for about ops ops of the workload, so
// that appends inside the measured phase do not show up in
// alloc_kb_per_op.
func newCollector(w *workload, ops int) *collector {
	return &collector{lat: make([]time.Duration, 0, ops), log: newOutLog(ops, w.batch*len(w.stacks))}
}

func (c *collector) record(d time.Duration, err error) {
	if err != nil {
		c.failed++
		if c.firstError == nil {
			c.firstError = err
		}
		return
	}
	c.lat = append(c.lat, d)
}

// callerOpsPerSecond bounds how fast one closed-loop caller completes
// ops on the reference host (the fastest, cluster.mixed.closed, manages
// about 80); buffers are sized from it.
const callerOpsPerSecond = 400

// measure runs body between two memory snapshots and folds the
// collectors into a phase.
func measure(body func() []*collector) *phase {
	runtime.GC() // start every phase from a collected heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	cols := body()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	p := &phase{WallS: wall.Seconds(), AllocKB: float64(after.TotalAlloc-before.TotalAlloc) / 1024}
	for _, c := range cols {
		p.latencies = append(p.latencies, c.lat...)
		p.logs = append(p.logs, c.log)
		p.Failed += c.failed
		if p.FirstError == "" && c.firstError != nil {
			p.FirstError = c.firstError.Error()
		}
	}
	p.Correct = len(p.latencies)
	p.Attempted = p.Correct + p.Failed
	p.Latency = summariseLatencies(p.latencies)
	return p
}

// runClosed drives the workload closed-loop for d: each of w.callers
// goroutines issues its next op only when the previous one returned, so
// a slower system is offered less load. Engine workloads are the
// one-caller case. Caller c performs ops c, c+callers, c+2·callers, ….
func runClosed(ctx context.Context, e *env, in *inputs, d time.Duration, tr *tracer) *phase {
	cols := make([]*collector, e.w.callers)
	for c := range cols {
		cols[c] = newCollector(e.w, int(d.Seconds()*callerOpsPerSecond)+1)
	}
	return measure(func() []*collector {
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		for c := range cols {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; time.Now().Before(deadline); i += e.w.callers {
					sp := tr.begin(e.w.Name, noSpan, i)
					start := time.Now()
					err := e.do(ctx, in, i, cols[c].log)
					cols[c].record(time.Since(start), err)
					tr.end(sp)
				}
			}(c)
		}
		wg.Wait()
		return cols
	})
}

// poissonSchedule returns n arrival offsets over d, ascending: a
// Poisson process conditioned on its count (n uniform order statistics),
// so every seed offers exactly rate·d requests with exponential gaps.
// Equal seeds give equal schedules.
func poissonSchedule(seed uint64, n int, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x706f6973736f6e)) // "poisson"
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sleepUntil returns once t has come. The last two milliseconds are
// yielded, not slept: on the reference host a timer wake-up is often
// one to two milliseconds late, which with a 1 ms window put the
// generator's p95 lateness at 1.7 ms, and with this one at 0.03 ms. The
// price is a caller that keeps a core busy for 2 ms per request.
func sleepUntil(t time.Time) {
	const spin = 2 * time.Millisecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runOpen drives the workload open-loop over one streaming session:
// requests leave on the seeded Poisson schedule whether or not earlier
// ones have come back, each is timed from the moment it was DUE (so a
// stall is charged to every request it delays), and there are no
// retries — an Overloaded reply is a failure.
func runOpen(ctx context.Context, e *env, in *inputs, rate float64, d time.Duration, seed uint64, tr *tracer) (*phase, error) {
	sess, err := e.client.Session(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: opening the session: %w", e.w.Name, err)
	}
	defer sess.Close()
	schedule := poissonSchedule(seed, int(rate*d.Seconds()), d)
	n := len(schedule)

	// byID maps a session id to its op. A reply can race ahead of the
	// sender's bookkeeping, so replies for ids not yet registered wait
	// in early.
	type reply struct {
		res serve.SessionResult
		at  time.Time
	}
	var (
		mu    sync.Mutex
		byID  = make(map[uint64]int, n)
		early = make(map[uint64]reply)
	)
	due := make([]time.Time, n)
	doneAt := make([]time.Time, n) // zero while unanswered
	spans := make([]spanID, n)
	late := make([]time.Duration, 0, n)
	col := newCollector(e.w, n)
	finish := func(i int, r reply) {
		err := r.res.Err
		if err == nil {
			err = col.log.addResponse(r.res.Resp, e.w.batch, i, 0, i%len(in.images), in)
		}
		col.record(r.at.Sub(due[i]), err)
		doneAt[i] = r.at
		tr.end(spans[i])
	}
	var lastSent time.Time

	p := measure(func() []*collector {
		done := make(chan struct{})
		pending := n // replies the receiver still owes; guarded by mu
		go func() {
			defer close(done)
			for {
				mu.Lock()
				left := pending
				mu.Unlock()
				if left == 0 {
					return
				}
				res, err := sess.Recv()
				if err != nil {
					mu.Lock()
					col.failed += pending
					if col.firstError == nil {
						col.firstError = err
					}
					pending = 0
					mu.Unlock()
					return
				}
				r := reply{res: res, at: time.Now()}
				mu.Lock()
				if i, ok := byID[res.ID]; ok {
					finish(i, r)
				} else {
					early[res.ID] = r
				}
				pending--
				mu.Unlock()
			}
		}()
		start := time.Now()
		for i, off := range schedule {
			due[i] = start.Add(off)
			sleepUntil(due[i])
			late = append(late, time.Since(due[i]))
			spans[i] = tr.begin(e.w.Name, noSpan, i)
			id, err := sess.Send(e.request(in, i))
			if err != nil {
				// Send fails only when the session itself is unusable:
				// closing it makes the receiver fail everything unanswered,
				// this op and the unsent rest included.
				mu.Lock()
				if col.firstError == nil {
					col.firstError = err
				}
				mu.Unlock()
				sess.Close()
				break
			}
			mu.Lock()
			if r, ok := early[id]; ok {
				delete(early, id)
				finish(i, r)
			} else {
				byID[id] = i
			}
			mu.Unlock()
		}
		lastSent = time.Now()
		<-done
		return []*collector{col}
	})
	ls := summariseLatencies(late)
	p.Lateness = &ls
	for _, at := range doneAt {
		if at.IsZero() || at.After(lastSent) {
			p.Backlog++
		}
	}
	if p.Attempted != n {
		return nil, fmt.Errorf("%s: %d of %d scheduled requests accounted for", e.w.Name, p.Attempted, n)
	}
	return p, nil
}

// runPhase dispatches on the workload's loop kind.
func runPhase(ctx context.Context, e *env, in *inputs, d time.Duration, seed uint64, tr *tracer) (*phase, error) {
	if e.w.rate > 0 {
		return runOpen(ctx, e, in, e.w.rate, d, seed, tr)
	}
	p := runClosed(ctx, e, in, d, tr)
	if p.Attempted == 0 {
		return nil, errors.New(e.w.Name + ": no op attempted")
	}
	return p, nil
}

// judge replays the phase's logged outputs against the oracle and moves
// every op with a wrong row from correct to failed.
func (p *phase) judge(o *oracle) {
	wrong, first := o.verify(p.logs...)
	p.Correct -= wrong
	p.Failed += wrong
	if p.FirstError == "" && first != nil {
		p.FirstError = first.Error()
	}
}
