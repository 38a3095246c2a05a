package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/blas"
	"repro/internal/compress/prune"
	"repro/internal/nn"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// convSite is one convolution of a network together with the input it
// sees: the geometry a kernel is measured on.
type convSite struct {
	Layer string            `json:"layer"`
	Geom  sparse.ConvParams `json:"geom"`
	H     int               `json:"h"`
	W     int               `json:"w"`
	MACs  int64             `json:"macs"`
}

// M, K, N are the site's im2col GEMM dimensions.
func (s convSite) M() int { return s.Geom.OutC }
func (s convSite) K() int { return s.Geom.InC * s.Geom.KH * s.Geom.KW }
func (s convSite) N() int { oh, ow := s.Geom.OutSize(s.H, s.W); return oh * ow }

func (s convSite) String() string {
	g := s.Geom
	return fmt.Sprintf("%s %d→%d %dx%d/s%d on %dx%d (GEMM %dx%dx%d)", s.Layer, g.InC, g.OutC, g.KH, g.KW, g.Stride, s.H, s.W, s.M(), s.K(), s.N())
}

// convSites walks the network at batch 1 and returns its ungrouped
// convolutions, heaviest first. Grouped (depthwise) convolutions lower
// to many tiny GEMMs and are left out: the kernels below are measured
// one GEMM at a time.
func convSites(net *nn.Network) []convSite {
	var sites []convSite
	visit := func(c *nn.Conv2D, in tensor.Shape) {
		if c.Geom.Groups != 1 {
			return
		}
		st, _ := c.Describe(in)
		sites = append(sites, convSite{Layer: c.Name(), Geom: c.Geom, H: in[2], W: in[3], MACs: st.MACs})
	}
	shape := tensor.Shape{1, net.InputShape[0], net.InputShape[1], net.InputShape[2]}
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *nn.Conv2D:
			visit(v, shape)
		case *nn.ResidualBlock:
			s1, _ := v.Conv1.Describe(shape)
			visit(v.Conv1, shape)
			visit(v.Conv2, s1.OutShape)
			if v.SkipConv != nil {
				visit(v.SkipConv, shape)
			}
		}
		_, shape = l.Describe(shape)
	}
	sort.SliceStable(sites, func(i, j int) bool { return sites[i].MACs > sites[j].MACs })
	return sites
}

// kernelRow is one kernel on one geometry. FLOPs counts the dense
// multiply-adds the layer defines (2·M·K·N) whatever the kernel skips,
// so GFLOPS of a sparse or Winograd kernel is an effective rate. Bytes
// is computed from tensor sizes (operands read once, result written
// once), not measured.
type kernelRow struct {
	Kernel string  `json:"kernel"`
	MS     spread  `json:"ms"`
	FLOPs  int64   `json:"flops"`
	Bytes  int64   `json:"computed_bytes"`
	GFLOPS float64 `json:"gflops"`
}

// kernelSampleFloor is the least time one kernel sample spans: a call
// shorter than this is repeated within the sample, so that a 50 µs
// kernel is not timed at the resolution of one scheduler hiccup.
const kernelSampleFloor = 5 * time.Millisecond

func timeKernel(name string, reps int, flops, bytes int64, f func()) kernelRow {
	f() // warm: page in operands and scratch
	start := time.Now()
	f()
	inner := int(kernelSampleFloor/max(time.Since(start), time.Microsecond)) + 1
	ms := make([]float64, reps)
	for i := range ms {
		start := time.Now()
		for j := 0; j < inner; j++ {
			f()
		}
		ms[i] = float64(time.Since(start)) / float64(time.Millisecond) / float64(inner)
	}
	row := kernelRow{Kernel: name, MS: summarise(ms), FLOPs: flops, Bytes: bytes}
	row.GFLOPS = float64(flops) / (row.MS.Median * 1e6)
	return row
}

// kernelSparsity is the weight sparsity the CSR kernel is measured at:
// resnet18's Table III weight-pruning point, the one
// engine.compressed.b1 executes.
const kernelSparsity = 0.8892

// kernelReps is how often each kernel is timed in a traced run.
const kernelReps = 7

// kernelResult is the kernel layer's share of a traced run.
type kernelResult struct {
	Site     convSite  `json:"site"`
	GEMM     kernelRow `json:"gemm"`
	QGEMM    kernelRow `json:"qgemm"`
	Sparse   kernelRow `json:"sparse"`
	Winograd kernelRow `json:"winograd"` // zero when the geometry is not 3×3/s1
	// ParallelSpeedup is GEMMParallelInto at nproc threads over one.
	ParallelSpeedup float64 `json:"parallel_gemm_speedup"`
	// SparseObserved is dense-GEMM time over CSR time; SparseExpected is
	// 1/(1−sparsity), what counting skipped multiplies predicts — the
	// two sides of the paper's Fig. 1.
	SparseObserved float64 `json:"sparse_observed_speedup"`
	SparseExpected float64 `json:"sparse_expected_speedup"`
}

// measureKernels times the blas, sparse and parallel kernels on the
// heaviest ungrouped convolution of net, with random operands.
func measureKernels(net *nn.Network, reps int) *kernelResult {
	return measureSite(convSites(net)[0], reps)
}

func measureSite(site convSite, reps int) *kernelResult {
	res := &kernelResult{Site: site, SparseExpected: 1 / (1 - kernelSparsity)}
	rng := tensor.NewRNG(7)
	m, k, n := site.M(), site.K(), site.N()
	flops := blas.GEMMFLOPs(m, k, n)
	a, b, dst := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	a.FillNormal(rng, 0, 0.05)
	b.FillNormal(rng, 0, 1)
	tile := blas.DefaultTiling()
	gemmBytes := int64(4 * (m*k + k*n + m*n))
	res.GEMM = timeKernel("blas.GEMMInto", reps, flops, gemmBytes, func() { blas.GEMMInto(dst, a, b, tile) })

	par := timeKernel("blas.GEMMParallelInto", reps, flops, gemmBytes, func() {
		blas.GEMMParallelInto(dst, a, b, tile, runtime.NumCPU())
	})
	res.ParallelSpeedup = res.GEMM.MS.Median / par.MS.Median

	// int8: dense codes (no zero to skip), so this is the kernel's raw
	// rate; 1 byte per operand element, 4 per result.
	qa := blas.QuantizeRowsInt8(a.Data(), m, k)
	qb := make([]int8, k*n)
	bScale := blas.QuantizeInt8(qb, b.Data())
	acc := make([]int32, blas.QAccLen(n))
	res.QGEMM = timeKernel("blas.QGEMMInt8Into", reps, flops, int64(m*k+k*n+4*m*n), func() {
		blas.QGEMMInt8Into(dst.Data(), qa, qb, n, bScale, acc)
	})

	// CSR direct convolution at Table III sparsity.
	conv := nn.NewConv2D("k", site.Geom, rng)
	prune.ToSparsity(conv.W, kernelSparsity)
	csr := conv.Freeze()
	in := tensor.New(1, site.Geom.InC, site.H, site.W)
	in.FillNormal(rng, 0, 1)
	oh, ow := site.Geom.OutSize(site.H, site.W)
	out := tensor.New(1, site.Geom.OutC, oh, ow)
	var padded *tensor.Tensor
	if p := site.Geom.Pad; p > 0 {
		padded = tensor.New(1, site.Geom.InC, site.H+2*p, site.W+2*p)
	}
	bias := conv.B.W.Data()
	nnz := int64(float64(m*k) * (1 - kernelSparsity))
	res.Sparse = timeKernel("sparse.Conv2DInto", reps, flops, 8*nnz+int64(4*(in.NumElements()+out.NumElements())), func() {
		sparse.Conv2DInto(out, in, csr, bias, site.Geom, padded)
	})
	res.SparseObserved = res.GEMM.MS.Median / res.Sparse.MS.Median

	if g := site.Geom; g.KH == 3 && g.KW == 3 && g.Stride == 1 && g.Pad == 1 {
		scratch := blas.NewWinogradScratch(tensor.NewArena(), 1, g.InC, site.H, site.W, g.OutC)
		dense := nn.NewConv2D("w", g, rng)
		res.Winograd = timeKernel("blas.WinogradConv2DInto", reps, flops, gemmBytes, func() {
			blas.WinogradConv2DInto(out, in, dense.W.W, bias, scratch)
		})
	}
	return res
}

func (r *kernelResult) print(w io.Writer) {
	fmt.Fprintf(w, "kernels on %s:\n", r.Site)
	for _, row := range []kernelRow{r.GEMM, r.QGEMM, r.Sparse, r.Winograd} {
		if row.Kernel == "" {
			continue
		}
		fmt.Fprintf(w, "  %-26s %9.4f ms (IQR %.4f, n=%d)  %8.3f GFLOP/s  %.1f MFLOP  %.2f MB computed\n",
			row.Kernel, row.MS.Median, row.MS.IQR(), row.MS.N, row.GFLOPS, float64(row.FLOPs)/1e6, float64(row.Bytes)/1e6)
	}
	fmt.Fprintf(w, "  parallel: GEMMParallelInto at %d threads is %.2fx one thread\n", runtime.NumCPU(), r.ParallelSpeedup)
	fmt.Fprintf(w, "  sparse at %.2f%% sparsity: observed %.2fx over dense GEMM, expected %.2fx → observed/expected = %.2f\n",
		100*kernelSparsity, r.SparseObserved, r.SparseExpected, r.SparseObserved/r.SparseExpected)
}
