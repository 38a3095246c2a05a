package prune

import (
	"math"
	"sort"
	"testing"

	"repro/internal/compress/quant"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// sortToSparsity is the full-sort reference ToSparsity replaced: rank
// every weight by magnitude and zero the goal smallest. sort.Slice is
// not stable, so where ties straddle the cut-off its pick among them is
// arbitrary; everywhere else it fixes the result.
func sortToSparsity(p *nn.Param, goal int) {
	ensureMask(p)
	w, m := p.W.Data(), p.Mask.Data()
	type wv struct {
		idx int
		abs float32
	}
	all := make([]wv, len(w))
	for i, v := range w {
		all[i] = wv{i, abs32(v)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].abs < all[j].abs })
	for _, e := range all[:goal] {
		m[e.idx] = 0
		w[e.idx] = 0
	}
}

// cloneParam deep-copies weights and mask.
func cloneParam(p *nn.Param) *nn.Param {
	q := &nn.Param{Name: p.Name, W: p.W.Clone()}
	if p.Mask != nil {
		q.Mask = p.Mask.Clone()
	}
	return q
}

// sameBits reports the first index where a and b differ bit-for-bit.
func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestToSparsityMatchesSortReference pins select to the sort it
// replaced on a mid-sized conv layer (64×64×3×3) carrying planted ties
// at zero and weights a previous pass already masked: weights and masks
// must come out bit-identical at every target, Table III's included.
func TestToSparsityMatchesSortReference(t *testing.T) {
	r := tensor.NewRNG(31)
	base := nn.NewParam("conv.weight", 64, 64, 3, 3)
	base.W.FillNormal(r, 0, 1)
	w := base.W.Data()
	for i := 0; i < len(w); i += 37 { // planted exact zeros, both signs
		w[i] = float32(math.Copysign(0, float64(1-i%2*2)))
	}
	MagnitudeThreshold(base, 0.05) // already-masked weights
	for _, target := range []float64{0.2, 0.5, 0.8892, 0.99} {
		got, want := cloneParam(base), cloneParam(base)
		ToSparsity(got, target)
		sortToSparsity(want, int(math.Round(target*float64(len(w)))))
		if i, ok := sameBits(got.W.Data(), want.W.Data()); !ok {
			t.Fatalf("target %v: weight %d = %v, sort reference %v", target, i, got.W.Data()[i], want.W.Data()[i])
		}
		if i, ok := sameBits(got.Mask.Data(), want.Mask.Data()); !ok {
			t.Fatalf("target %v: mask %d = %v, sort reference %v", target, i, got.Mask.Data()[i], want.Mask.Data()[i])
		}
	}
}

// TestToSparsityPartialTiesSpreadEvenly: a ternary layer has far more
// weights tied at the cut-off than the shortfall. Exactly goal weights
// end up zero, nothing above the cut-off is touched, and the zeroed
// ties are spread evenly in index order: after any prefix of L ties,
// ⌊L·need/ties⌋ of them are zeroed.
func TestToSparsityPartialTiesSpreadEvenly(t *testing.T) {
	const n = 3000
	p := nn.NewParam("w", n)
	w := p.W.Data()
	for i := range w {
		switch i % 3 {
		case 0:
			w[i] = 0.25 // the tied magnitude: +Wp
		case 1:
			w[i] = -0.25 // and -Wn, tied with it
		default:
			w[i] = 0.5 + float32(i)/n
		}
	}
	w[7], w[100] = 0.01, -0.02 // strictly below the cut-off
	orig := append([]float32(nil), w...)
	const target = 0.4
	goal := int(math.Round(target * n))
	ToSparsity(p, target)

	if z := p.W.CountZeros(); z != goal {
		t.Fatalf("%d zeros, want exactly %d", z, goal)
	}
	var ties []int
	for i, v := range orig {
		a := abs32(v)
		switch {
		case a < 0.25 && w[i] != 0:
			t.Fatalf("weight %d (|w|=%v) below the cut-off survived", i, a)
		case a > 0.25 && w[i] == 0:
			t.Fatalf("weight %d (|w|=%v) above the cut-off pruned", i, a)
		case a == 0.25:
			ties = append(ties, i)
		}
	}
	need := goal - 2
	zeroed := 0
	for l, i := range ties {
		if w[i] == 0 {
			zeroed++
		}
		if want := (l + 1) * need / len(ties); zeroed != want {
			t.Fatalf("after %d ties %d zeroed, even spread wants %d", l+1, zeroed, want)
		}
	}
	for i, m := range p.Mask.Data() {
		if (m == 0) != (w[i] == 0) {
			t.Fatalf("mask %d = %v disagrees with weight %v", i, m, w[i])
		}
	}
}

// TestToSparsityEdgeGoals: goal 0 changes nothing (but installs the
// all-ones mask); goal n zeroes every weight, ties included.
func TestToSparsityEdgeGoals(t *testing.T) {
	p := nn.NewParam("w", 10)
	copy(p.W.Data(), []float32{1, -1, 1, 2, -2, 0.5, 1, -1, 3, 1})
	orig := append([]float32(nil), p.W.Data()...)
	ToSparsity(p, 0)
	if i, ok := sameBits(p.W.Data(), orig); !ok {
		t.Fatalf("target 0 changed weight %d", i)
	}
	if z := p.Mask.CountZeros(); z != 0 {
		t.Fatalf("target 0 left %d mask zeros", z)
	}
	ToSparsity(p, 1)
	if z := p.W.CountZeros(); z != 10 {
		t.Fatalf("target 1 left %d of 10 weights", 10-z)
	}
	if z := p.Mask.CountZeros(); z != 10 {
		t.Fatalf("target 1 masked %d of 10 weights", z)
	}
}

// TestSelectKth checks selection against a sorted copy on heavily tied
// data, where a two-way partition would degrade.
func TestSelectKth(t *testing.T) {
	r := tensor.NewRNG(5)
	a := make([]float32, 500)
	for i := range a {
		a[i] = float32(r.Intn(7))
	}
	sorted := append([]float32(nil), a...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for k := range a {
		if got := selectKth(append([]float32(nil), a...), k); got != sorted[k] {
			t.Fatalf("selectKth(%d) = %v, want %v", k, got, sorted[k])
		}
	}
}

// TestRePruneAfterTernaryIsNoOp pins the Deep Compression pipeline's
// re-prune: after pruning to s and ternarising at threshold 0, the layer
// already has exactly goal zeros (the cut-off is 0 and every tie goes),
// so pruning to s again must leave weights and masks bit-identical.
func TestRePruneAfterTernaryIsNoOp(t *testing.T) {
	net, err := models.ByName("mini-vgg", tensor.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	const s = 0.8892
	NetworkToSparsity(net, s)
	quant.Quantize(net, 0)
	var before []*nn.Param
	for _, p := range prunableParams(net) {
		before = append(before, cloneParam(p))
	}
	NetworkToSparsity(net, s)
	for i, p := range prunableParams(net) {
		if j, ok := sameBits(p.W.Data(), before[i].W.Data()); !ok {
			t.Fatalf("%s: re-prune changed weight %d", p.Name, j)
		}
		if j, ok := sameBits(p.Mask.Data(), before[i].Mask.Data()); !ok {
			t.Fatalf("%s: re-prune changed mask %d", p.Name, j)
		}
	}
}
