// Package kernels implements the paper's eight evaluation benchmarks —
// SYRK, SYR2K, COVAR, GEMM, 2MM and 3MM from the Polyhedral Benchmark suite
// plus Mat-mul and Collinear-list from MgBench — as OpenMP-accelerator-model
// workloads over 32-bit floats, "previously adapted for the OpenMP
// accelerator model" exactly as §IV describes. Every benchmark carries its
// serial reference for verification and its operation-count formula for the
// performance model.
package kernels

import (
	"math"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
)

// Alpha and Beta are the scalar coefficients of the Polybench kernels.
const (
	Alpha float32 = 1.5
	Beta  float32 = 1.2
)

// CollinearEps is the cross-product threshold under which three points
// count as collinear in the MgBench Collinear-list benchmark.
const CollinearEps = 1e-4

// The loop bodies below are the fat-binary "native kernels" the Spark
// workers invoke (the JNI_region functions of the paper's Fig. 2). Each
// computes iterations [lo, hi) of the annotated outer loop; partitioned
// buffers arrive as tile-local windows, unpartitioned ones whole. Inputs
// are read in place through data.View, never decoded into per-tile
// copies, so a broadcast buffer costs nothing per tile.
func init() {
	// mm: plain matrix multiplication C = A x B over n x n linearized
	// matrices. ins: [A rows lo..hi, B whole]; outs: [C rows lo..hi].
	// Shared by MgBench Mat-mul and as the building block of 2MM/3MM.
	fatbin.Register("mm", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		a := data.View(in[0])
		b := data.View(in[1])
		rows := int(hi - lo)
		c := make([]float32, rows*n)
		for i := 0; i < rows; i++ {
			row := c[i*n : (i+1)*n]
			for k := 0; k < n; k++ {
				// No zero-skip shortcuts: the paper observes that
				// computation time is insensitive to the data kind
				// ("the variation is negligible for the computation
				// time"), which holds for branch-free C kernels.
				aik := a[i*n+k]
				brow := b[k*n : (k+1)*n]
				for j := range row {
					row[j] += aik * brow[j]
				}
			}
		}
		writeFloats(out[0], c)
		return nil
	})

	// mm.bcast: the same multiplication with A broadcast whole instead of
	// row-partitioned; the body indexes A with the global iteration index.
	// Used by the no-partitioning ablation (Listing 1 without Listing 2).
	fatbin.Register("mm.bcast", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		a := data.View(in[0]) // whole A
		b := data.View(in[1])
		rows := int(hi - lo)
		c := make([]float32, rows*n)
		for i := 0; i < rows; i++ {
			gi := int(lo) + i
			row := c[i*n : (i+1)*n]
			for k := 0; k < n; k++ {
				aik := a[gi*n+k]
				brow := b[k*n : (k+1)*n]
				for j := range row {
					row[j] += aik * brow[j]
				}
			}
		}
		writeFloats(out[0], c)
		return nil
	})

	// gemm: C = Alpha*A*B + Beta*C. ins: [A rows, B whole, C rows];
	// outs: [C rows].
	fatbin.Register("gemm", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		a := data.View(in[0])
		b := data.View(in[1])
		cin := data.View(in[2])
		rows := int(hi - lo)
		c := make([]float32, rows*n)
		for i := 0; i < rows; i++ {
			row := c[i*n : (i+1)*n]
			for j := range row {
				row[j] = Beta * cin[i*n+j]
			}
			for k := 0; k < n; k++ {
				aik := Alpha * a[i*n+k]
				brow := b[k*n : (k+1)*n]
				for j := range row {
					row[j] += aik * brow[j]
				}
			}
		}
		writeFloats(out[0], c)
		return nil
	})

	// syrk: C = Alpha*A*A^T + Beta*C. Row i of C needs every row of A, so
	// A is broadcast whole. ins: [A whole, C rows]; outs: [C rows];
	// scalars: [n].
	fatbin.Register("syrk", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		a := data.View(in[0])
		cin := data.View(in[1])
		rows := int(hi - lo)
		c := make([]float32, rows*n)
		for i := 0; i < rows; i++ {
			gi := int(lo) + i
			arow := a[gi*n : (gi+1)*n]
			for j := 0; j < n; j++ {
				var acc float32
				brow := a[j*n : (j+1)*n]
				for k := 0; k < n; k++ {
					acc += arow[k] * brow[k]
				}
				c[i*n+j] = Beta*cin[i*n+j] + Alpha*acc
			}
		}
		writeFloats(out[0], c)
		return nil
	})

	// syr2k: C = Alpha*A*B^T + Alpha*B*A^T + Beta*C. ins: [A whole,
	// B whole, C rows]; outs: [C rows]; scalars: [n].
	fatbin.Register("syr2k", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		a := data.View(in[0])
		b := data.View(in[1])
		cin := data.View(in[2])
		rows := int(hi - lo)
		c := make([]float32, rows*n)
		for i := 0; i < rows; i++ {
			gi := int(lo) + i
			ai := a[gi*n : (gi+1)*n]
			bi := b[gi*n : (gi+1)*n]
			for j := 0; j < n; j++ {
				aj := a[j*n : (j+1)*n]
				bj := b[j*n : (j+1)*n]
				var acc float32
				for k := 0; k < n; k++ {
					acc += ai[k]*bj[k] + bi[k]*aj[k]
				}
				c[i*n+j] = Beta*cin[i*n+j] + Alpha*acc
			}
		}
		writeFloats(out[0], c)
		return nil
	})

	// covar.mean: column means of the m x n data matrix, parallel over
	// columns j. ins: [data whole]; outs: [mean entries lo..hi];
	// scalars: [n, m].
	fatbin.Register("covar.mean", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		m := int(scalars[1])
		d := data.View(in[0])
		// Row i of d is read contiguously into a row of column sums;
		// each sum still adds i in ascending order, as the serial
		// reference does, so the result is bit-identical.
		mean := make([]float32, hi-lo)
		for i := 0; i < m; i++ {
			row := d[i*n+int(lo) : i*n+int(hi)]
			for j, v := range row {
				mean[j] += v
			}
		}
		for j := range mean {
			mean[j] /= float32(m)
		}
		writeFloats(out[0], mean)
		return nil
	})

	// covar.sym: sym[j1][j2] = sum_i (d[i][j1]-mean[j1])*(d[i][j2]-
	// mean[j2]), parallel over rows j1 of the symmetric output. ins:
	// [data whole, mean whole]; outs: [sym rows lo..hi]; scalars: [n, m].
	fatbin.Register("covar.sym", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		m := int(scalars[1])
		d := data.View(in[0])
		mean := data.View(in[1])
		rows := int(hi - lo)
		sym := make([]float32, rows*n)
		for j1 := 0; j1 < rows; j1++ {
			gj1 := int(lo) + j1
			m1 := mean[gj1]
			// A row of accumulators, one per j2, fed a row of d at a
			// time: every acc[j2] sums i in ascending order with the
			// reference's expression, so the result is bit-identical.
			acc := sym[j1*n : (j1+1)*n]
			for i := 0; i < m; i++ {
				di := d[i*n : (i+1)*n]
				a := di[gj1] - m1
				for j2, m2 := range mean[:n] {
					acc[j2] += a * (di[j2] - m2)
				}
			}
			for j2 := range acc {
				acc[j2] /= float32(m - 1)
			}
		}
		writeFloats(out[0], sym)
		return nil
	})

	// collinear: for every point i, counts the pairs (j, k), j < k, both
	// distinct from i, that are collinear with it; every unordered triple
	// is therefore counted three times, once per member. The full j/k
	// sweep keeps the per-iteration cost uniform in i, so equal-width
	// tiles balance — matching the near-ideal scaling the paper reports
	// for this benchmark. ins: [pts whole, interleaved x/y]; outs:
	// [count, one float32, reduction(+)]; scalars: [npoints].
	fatbin.Register("collinear", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		pts := data.View(in[0])
		var count float32
		for gi := int(lo); gi < int(hi); gi++ {
			xi, yi := pts[2*gi], pts[2*gi+1]
			for j := 0; j < n; j++ {
				if j == gi {
					continue
				}
				dxj, dyj := pts[2*j]-xi, pts[2*j+1]-yi
				for k := j + 1; k < n; k++ {
					if k == gi {
						continue
					}
					cross := dxj*(pts[2*k+1]-yi) - dyj*(pts[2*k]-xi)
					if float32(math.Abs(float64(cross))) < CollinearEps {
						count++
					}
				}
			}
		}
		data.PutFloat(out[0], 0, count)
		return nil
	})
}

// writeFloats serializes a float32 slice into an output window.
func writeFloats(dst []byte, src []float32) {
	for i, v := range src {
		data.PutFloat(dst, i, v)
	}
}
