// Package prune implements Deep-Compression-style weight pruning
// (Han et al., the paper's [10]/[12]): magnitude-based removal of
// individual weights, layer-by-layer thresholds derived from each
// layer's statistics, pruning masks that keep removed weights at exactly
// zero through fine-tuning, and the iterative prune→retrain loop used to
// trace the accuracy/sparsity Pareto curve of Fig. 3a.
package prune

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// prunableParams returns the weight tensors subject to pruning: all
// convolution and fully-connected weights (biases and batch-norm
// parameters are never pruned).
func prunableParams(net *nn.Network) []*nn.Param {
	var ps []*nn.Param
	for _, c := range net.Convs() {
		ps = append(ps, c.W)
	}
	for _, l := range net.Linears() {
		ps = append(ps, l.W)
	}
	return ps
}

// ensureMask installs an all-ones mask if the parameter has none.
func ensureMask(p *nn.Param) {
	if p.Mask == nil {
		p.Mask = tensor.New(p.W.Shape()...)
		p.Mask.Fill(1)
	}
}

// MagnitudeThreshold prunes every weight in p whose magnitude is below
// thr, updating the mask, and returns the number of weights removed by
// this call.
func MagnitudeThreshold(p *nn.Param, thr float32) int {
	ensureMask(p)
	w, m := p.W.Data(), p.Mask.Data()
	removed := 0
	for i, v := range w {
		if m[i] == 0 {
			continue
		}
		if v < thr && v > -thr {
			m[i] = 0
			w[i] = 0
			removed++
		}
	}
	return removed
}

// StdThreshold prunes layer p at a threshold of quality × std(weights),
// the per-layer rule of Han et al. ("the threshold is determined by the
// standard deviation of the layer").
func StdThreshold(p *nn.Param, quality float64) int {
	return MagnitudeThreshold(p, float32(quality*p.W.Std()))
}

// ToSparsity prunes the smallest-magnitude weights of p until exactly
// round(target·n) of its n weights are zero. Already-masked weights
// count toward the target.
//
// The cut-off τ is the goal-th smallest |w|, found by selection rather
// than a full sort. Every weight with |w| < τ is removed; of the weights
// tied at |w| == τ, exactly the shortfall is removed, spread evenly over
// the ties in index order (tie rank j goes iff ⌊(j+1)·need/ties⌋ ≠
// ⌊j·need/ties⌋). Ties beyond already-zero weights only arise in
// quantised layers, where thousands of entries share ±Wp/±Wn; the
// spread keeps such a layer's zeros from clustering in a few rows.
func ToSparsity(p *nn.Param, target float64) {
	if target < 0 || target > 1 {
		panic(fmt.Sprintf("prune: target sparsity %v outside [0,1]", target))
	}
	ensureMask(p)
	w, m := p.W.Data(), p.Mask.Data()
	goal := int(math.Round(target * float64(len(w))))
	if goal == 0 {
		return
	}
	abs := make([]float32, len(w))
	for i, v := range w {
		abs[i] = abs32(v)
	}
	tau := selectKth(abs, goal-1)
	below, ties := 0, 0
	for _, v := range w {
		switch a := abs32(v); {
		case a < tau:
			below++
		case a == tau:
			ties++
		}
	}
	need, j := goal-below, 0
	for i, v := range w {
		switch a := abs32(v); {
		case a < tau:
			m[i], w[i] = 0, 0
		case a == tau:
			if (j+1)*need/ties != j*need/ties {
				m[i], w[i] = 0, 0
			}
			j++
		}
	}
}

// abs32 is |v| with the sign bit cleared.
func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}

// selectKth returns the k-th smallest (0-based) value of a, reordering
// a in place. Three-way partitioning keeps it linear on the heavily
// tied magnitudes of pruned and ternary layers.
func selectKth(a []float32, k int) float32 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		pivot := max(min(x, y), min(max(x, y), z))
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := a[i]; {
			case v < pivot:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > pivot:
				a[gt], a[i] = v, a[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return pivot
		}
	}
	return a[k]
}

// NetworkToSparsity prunes every prunable layer to the same target
// sparsity. The paper's schedule zeroes the globally lowest-magnitude
// fraction; per-layer targets give the same aggregate while preserving
// at least some weights in small layers.
func NetworkToSparsity(net *nn.Network, target float64) {
	for _, p := range prunableParams(net) {
		ToSparsity(p, target)
	}
	net.Freeze()
}

// Sparsity reports the current zero fraction over prunable weights.
func Sparsity(net *nn.Network) float64 { return net.WeightSparsity() }

// PointOnCurve is one measured operating point of the accuracy/sparsity
// Pareto curve.
type PointOnCurve struct {
	Sparsity float64
	Accuracy float64
}

// IterativeConfig controls the prune→retrain loop.
type IterativeConfig struct {
	// Targets is the increasing sparsity schedule; the paper starts at
	// 50% and raises the threshold after each fine-tuning round.
	Targets []float64
	// FineTune configures each retraining round (the paper fine-tunes
	// for 30 epochs per round; mini-model experiments use fewer).
	FineTune train.Config
}

// Iterative runs the Deep Compression loop: prune to each target in
// sequence, fine-tune with masks held, and record test accuracy. The
// returned curve is the Fig. 3a generator for real (mini-model) training.
func Iterative(net *nn.Network, trainSet, testSet *data.Dataset, cfg IterativeConfig) []PointOnCurve {
	curve := []PointOnCurve{{
		Sparsity: Sparsity(net),
		Accuracy: train.Evaluate(net, testSet, cfg.FineTune.Threads),
	}}
	for _, target := range cfg.Targets {
		NetworkToSparsity(net, target)
		res := train.Run(net, trainSet, testSet, cfg.FineTune)
		curve = append(curve, PointOnCurve{Sparsity: Sparsity(net), Accuracy: res.TestAccuracy})
	}
	return curve
}
