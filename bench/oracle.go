package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Oracle tolerances: the maximum absolute logit difference an op's
// output may show against the eager reference. They are the budgets the
// repository's own parity tests use — 1e-3 for every f32 path against
// the direct reference (internal/core TestAutoAlgoRun…, internal/nn
// TestConvAlgosAgree), and 1e-4 for the quantised plan against the eager
// quantised forward it shares kernels with
// (internal/nn TestQuantPlanMatchesEagerForward).
const (
	tolF32   = 1e-3
	tolQuant = 1e-4
)

// outLog keeps every output row of a phase so that the oracle can judge
// them after the clock — and the peak-RSS reading — have stopped: the
// eager reference passes allocate far more than the ops they check, and
// run before or during the measurement they would be what peak_rss_mb
// and alloc_kb_per_op measure. Each caller owns one log; a nil *outLog
// discards (warm-up).
type outLog struct {
	rows   []logRow
	logits []float32
}

// logRow locates one logged row: op produced it on stack for image img,
// and its logits are the next n values of the log.
type logRow struct{ op, stack, img, n int32 }

// newOutLog sizes a log for ops of rowsPerOp rows so that appends inside
// a measured phase rarely allocate.
func newOutLog(ops, rowsPerOp int) *outLog {
	const classesHint = 10
	return &outLog{
		rows:   make([]logRow, 0, ops*rowsPerOp),
		logits: make([]float32, 0, ops*rowsPerOp*classesHint),
	}
}

func (l *outLog) add(op, stack, img int, logits []float32) {
	l.rows = append(l.rows, logRow{int32(op), int32(stack), int32(img), int32(len(logits))})
	l.logits = append(l.logits, logits...)
}

// addRows logs an engine output of rows rows for op's images k, k+1, ….
func (l *outLog) addRows(logits []float32, rows, op, stack, k int, in *inputs) error {
	if rows == 0 || len(logits)%rows != 0 {
		return fmt.Errorf("output of %d values does not split into %d rows", len(logits), rows)
	}
	if l == nil {
		return nil
	}
	classes := len(logits) / rows
	for j := 0; j < rows; j++ {
		l.add(op, stack, in.imageIndex(k, j), logits[j*classes:(j+1)*classes])
	}
	return nil
}

// addResponse logs a served response the same way. A missing result or
// a per-image error fails the op at once.
func (l *outLog) addResponse(resp *serve.Response, rows, op, stack, k int, in *inputs) error {
	if len(resp.Results) != rows {
		return fmt.Errorf("response carries %d results for %d images", len(resp.Results), rows)
	}
	for j, r := range resp.Results {
		if r.Err != nil {
			return r.Err
		}
		if r.Output == nil {
			return fmt.Errorf("result %d carries no output", j)
		}
		if l != nil {
			l.add(op, stack, in.imageIndex(k, j), r.Output.Data())
		}
	}
	return nil
}

// oracle holds, per stack and image, the logits of an eager
// nn.Network.Forward over the same weights and judges logged outputs
// against them: the top-1 class must match and no logit may differ by
// more than the stack's tolerance. A mismatch is a failed op.
type oracle struct {
	refs [][][]float32 // [stack][image] → logits
	tol  []float64     // per stack
}

// referenceAlgo is the eager algorithm a stack is checked against. f32
// stacks are checked against the direct nested-loop kernel whatever
// algorithm their plan runs. The quantised stack is checked against the
// eager int8 forward: int8 rounding moves logits by far more than any
// useful tolerance against f32 (that gap is the technique's accuracy
// cost, the subject of internal/pareto, not a serving fault).
func referenceAlgo(cfg core.Config) (nn.Algo, float64) {
	if cfg.ExecAlgo() == nn.QuantInt8 {
		return nn.QuantInt8, tolQuant
	}
	return nn.Direct, tolF32
}

// newOracle computes the references for images over one network per
// stack. nets[s] must carry exactly the weights stack s executes.
func newOracle(stacks []core.Config, nets []*nn.Network, images []*tensor.Tensor) *oracle {
	o := &oracle{}
	for s, cfg := range stacks {
		algo, tol := referenceAlgo(cfg)
		ctx := nn.Inference()
		ctx.Algo = algo
		row := make([][]float32, len(images))
		for i, img := range images {
			in := img.Reshape(append([]int{1}, img.Shape()...)...)
			row[i] = nets[s].Forward(&ctx, in).Data()
		}
		o.refs = append(o.refs, row)
		o.tol = append(o.tol, tol)
	}
	return o
}

func argmax(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// check judges one output row.
func (o *oracle) check(stack, img int, logits []float32) error {
	want := o.refs[stack][img]
	if len(logits) != len(want) {
		return fmt.Errorf("oracle: stack %d image %d: %d logits, reference has %d", stack, img, len(logits), len(want))
	}
	var worst float64
	for i, x := range logits {
		d := math.Abs(float64(x) - float64(want[i]))
		if d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	if math.IsNaN(worst) || worst > o.tol[stack] {
		return fmt.Errorf("oracle: stack %d image %d: logits differ from the eager reference by %g (tolerance %g)", stack, img, worst, o.tol[stack])
	}
	// Top-1 must agree, except that classes the reference itself ranks
	// within the tolerance band of its maximum are a tie either side may
	// break differently.
	if got, ref := argmax(logits), argmax(want); float64(want[ref]-want[got]) > 2*o.tol[stack] {
		return fmt.Errorf("oracle: stack %d image %d: top-1 class %d, reference %d", stack, img, got, ref)
	}
	return nil
}

// verify replays logs against the references and returns how many
// distinct ops produced a wrong row, with the first such verdict.
func (o *oracle) verify(logs ...*outLog) (failedOps int, first error) {
	failed := make(map[int32]bool)
	for _, l := range logs {
		at := 0
		for _, r := range l.rows {
			logits := l.logits[at : at+int(r.n)]
			at += int(r.n)
			if err := o.check(int(r.stack), int(r.img), logits); err != nil {
				failed[r.op] = true
				if first == nil {
					first = fmt.Errorf("op %d: %w", r.op, err)
				}
			}
		}
	}
	return len(failed), first
}
