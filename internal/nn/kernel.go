package nn

// Vectorized matvec/GEMM kernels for the inference and training paths.
// The scalar loops they replace computed one output lane at a time,
// reloading the full input vector from memory for every lane; these
// routines process several output lanes per pass (independent accumulator
// chains sharing each x[i] load) and, for whole-sequence products, keep a
// weight tile hot in cache while the timestep rows stream through it.
//
// Numerical contract: every kernel accumulates each output lane in exactly
// the order of the scalar loop it replaces — a single running sum seeded
// with the bias (or the destination value, for the Accum variants) and
// advanced input-index-ascending. Unrolling happens only ACROSS lanes,
// never within one lane's chain, so results are bit-identical to the naive
// loops. kernel_test.go pins this property against reference
// implementations over randomized shapes.
//
// The LSTM backward kernels (matvecTAccum, seqTAccum, outerAccum) keep the
// same contract for BPTT's per-element chains, whose orders are fixed by
// the scalar backward they replace (kept as a reference in
// kernel_test.go). They block across gate rows and timesteps, never
// within one element's chain:
//
//   - dh and the input gradient: element i accumulates d[g]·W[g][i] over
//     gate rows g ASCENDING, seeded with the destination value;
//   - Wx.G and Wh.G: element (g, i) accumulates d_t[g]·x_t[i] over
//     timesteps t DESCENDING, continuing the value already in G (earlier
//     samples of the mini-batch);
//   - every term whose gate gradient is exactly zero is SKIPPED, never
//     added: adding 0·x would turn a -0 accumulator into +0, and 0·Inf
//     into NaN. The blocked kernels therefore fall back to per-row,
//     per-timestep code for any block containing a zero gate gradient.

// matvecAccum computes dst[o] += w[o*in:(o+1)*in] · x[:in] for o in
// [0, out), continuing each lane's existing accumulation chain. Lanes go
// eight per pass, then four, then one at a time.
func matvecAccum(dst, w, x []float64, out, in int) {
	x = x[:in]
	o := 0
	for ; o+8 <= out; o += 8 {
		base := o * in
		r0 := w[base : base+in : base+in]
		r1 := w[base+in : base+2*in : base+2*in]
		r2 := w[base+2*in : base+3*in : base+3*in]
		r3 := w[base+3*in : base+4*in : base+4*in]
		r4 := w[base+4*in : base+5*in : base+5*in]
		r5 := w[base+5*in : base+6*in : base+6*in]
		r6 := w[base+6*in : base+7*in : base+7*in]
		r7 := w[base+7*in : base+8*in : base+8*in]
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		r4, r5, r6, r7 = r4[:len(x)], r5[:len(x)], r6[:len(x)], r7[:len(x)]
		d := dst[o : o+8 : o+8]
		s0, s1, s2, s3 := d[0], d[1], d[2], d[3]
		s4, s5, s6, s7 := d[4], d[5], d[6], d[7]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
			s4 += r4[i] * xi
			s5 += r5[i] * xi
			s6 += r6[i] * xi
			s7 += r7[i] * xi
		}
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
		d[4], d[5], d[6], d[7] = s4, s5, s6, s7
	}
	for ; o+4 <= out; o += 4 {
		base := o * in
		r0 := w[base : base+in : base+in]
		r1 := w[base+in : base+2*in : base+2*in]
		r2 := w[base+2*in : base+3*in : base+3*in]
		r3 := w[base+3*in : base+4*in : base+4*in]
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		d := dst[o : o+4 : o+4]
		s0, s1, s2, s3 := d[0], d[1], d[2], d[3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
	}
	for ; o < out; o++ {
		row := w[o*in : (o+1)*in : (o+1)*in]
		row = row[:len(x)]
		s := dst[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		dst[o] = s
	}
}

// matvecTAccum is the transposed product dst[i] += Σ_g d[g]·w[g*n+i] for
// i in [0, n), g ascending over the rows of the row-major rows×n matrix w.
// Rows with d[g] == 0 contribute nothing (they are skipped, not added).
// Four rows go per pass, so each dst element is loaded and stored once per
// four rows instead of once per row; a block holding a zero gradient runs
// row by row instead.
func matvecTAccum(dst, w, d []float64, rows, n int) {
	dst = dst[:n]
	g := 0
	for ; g+4 <= rows; g += 4 {
		d0, d1, d2, d3 := d[g], d[g+1], d[g+2], d[g+3]
		if d0 == 0 || d1 == 0 || d2 == 0 || d3 == 0 {
			for k := g; k < g+4; k++ {
				axpy(dst, d[k], w[k*n:(k+1)*n:(k+1)*n])
			}
			continue
		}
		base := g * n
		w0 := w[base : base+n : base+n][:len(dst)]
		w1 := w[base+n : base+2*n : base+2*n][:len(dst)]
		w2 := w[base+2*n : base+3*n : base+3*n][:len(dst)]
		w3 := w[base+3*n : base+4*n : base+4*n][:len(dst)]
		for i, s := range dst {
			s += d0 * w0[i]
			s += d1 * w1[i]
			s += d2 * w2[i]
			s += d3 * w3[i]
			dst[i] = s
		}
	}
	for ; g < rows; g++ {
		axpy(dst, d[g], w[g*n:(g+1)*n:(g+1)*n])
	}
}

// seqTAccum is matvecTAccum for every timestep of a window:
// dst[t][i] += Σ_g d[t][g]·w[g*n+i]. Timesteps go in pairs, so each
// four-row weight block is loaded once for two of them; a pair whose
// block holds a zero gradient runs each timestep through matvecTAccum's
// per-row path instead.
func seqTAccum(dst, d [][]float64, w []float64, rows, n int) {
	t := 0
	for ; t+2 <= len(d); t += 2 {
		pa, pb := dst[t][:n], dst[t+1][:n]
		da, db := d[t][:rows], d[t+1][:rows]
		g := 0
		for ; g+4 <= rows; g += 4 {
			a0, a1, a2, a3 := da[g], da[g+1], da[g+2], da[g+3]
			b0, b1, b2, b3 := db[g], db[g+1], db[g+2], db[g+3]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 || b0 == 0 || b1 == 0 || b2 == 0 || b3 == 0 {
				for k := g; k < g+4; k++ {
					row := w[k*n : (k+1)*n : (k+1)*n]
					axpy(pa, da[k], row)
					axpy(pb, db[k], row)
				}
				continue
			}
			base := g * n
			w0 := w[base : base+n : base+n][:len(pa)]
			w1 := w[base+n : base+2*n : base+2*n][:len(pa)]
			w2 := w[base+2*n : base+3*n : base+3*n][:len(pa)]
			w3 := w[base+3*n : base+4*n : base+4*n][:len(pa)]
			pb = pb[:len(pa)]
			for i, sa := range pa {
				sb := pb[i]
				v := w0[i]
				sa += a0 * v
				sb += b0 * v
				v = w1[i]
				sa += a1 * v
				sb += b1 * v
				v = w2[i]
				sa += a2 * v
				sb += b2 * v
				v = w3[i]
				sa += a3 * v
				sb += b3 * v
				pa[i], pb[i] = sa, sb
			}
		}
		for ; g < rows; g++ {
			row := w[g*n : (g+1)*n : (g+1)*n]
			axpy(pa, da[g], row)
			axpy(pb, db[g], row)
		}
	}
	for ; t < len(d); t++ {
		matvecTAccum(dst[t], w, d[t], rows, n)
	}
}

// axpy is dst[i] += a·x[i], skipped entirely when a == 0.
func axpy(dst []float64, a float64, x []float64) {
	if a == 0 {
		return
	}
	x = x[:len(dst)]
	for i, xi := range x {
		dst[i] += a * xi
	}
}

// outerAccum accumulates a window's outer products into a row-major
// rows×n gradient matrix: G[g*n+i] += d[t][g]·x[t][i] over timesteps t
// DESCENDING, skipping every term whose d[t][g] == 0. Two gradient rows
// share each pass over x, and four timesteps go per pass, so each
// gradient element is loaded and stored once per four timesteps instead
// of once per timestep. A block of four timesteps holding a zero gradient
// in either row runs timestep by timestep instead.
func outerAccum(G []float64, d, x [][]float64, rows, n int) {
	g := 0
	for ; g+2 <= rows; g += 2 {
		ra := G[g*n : (g+1)*n : (g+1)*n]
		rb := G[(g+1)*n : (g+2)*n : (g+2)*n][:len(ra)]
		t := len(d) - 1
		for ; t >= 3; t -= 4 {
			a0, a1, a2, a3 := d[t][g], d[t-1][g], d[t-2][g], d[t-3][g]
			b0, b1, b2, b3 := d[t][g+1], d[t-1][g+1], d[t-2][g+1], d[t-3][g+1]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 || b0 == 0 || b1 == 0 || b2 == 0 || b3 == 0 {
				for k := t; k > t-4; k-- {
					axpy(ra, d[k][g], x[k])
					axpy(rb, d[k][g+1], x[k])
				}
				continue
			}
			x0, x1 := x[t][:len(ra)], x[t-1][:len(ra)]
			x2, x3 := x[t-2][:len(ra)], x[t-3][:len(ra)]
			for i, sa := range ra {
				sb := rb[i]
				v := x0[i]
				sa += a0 * v
				sb += b0 * v
				v = x1[i]
				sa += a1 * v
				sb += b1 * v
				v = x2[i]
				sa += a2 * v
				sb += b2 * v
				v = x3[i]
				sa += a3 * v
				sb += b3 * v
				ra[i], rb[i] = sa, sb
			}
		}
		for ; t >= 0; t-- {
			axpy(ra, d[t][g], x[t])
			axpy(rb, d[t][g+1], x[t])
		}
	}
	for ; g < rows; g++ {
		row := G[g*n : (g+1)*n : (g+1)*n]
		for t := len(d) - 1; t >= 0; t-- {
			axpy(row, d[t][g], x[t])
		}
	}
}

// matvecStridedAccum is matvecAccum over non-contiguous weight rows: lane
// o's row is w[base+o*stride : base+o*stride+in]. Conv1D uses it to apply
// one kernel tap (row stride K*in) across all output channels.
func matvecStridedAccum(dst, w, x []float64, base, stride, out, in int) {
	x = x[:in]
	o := 0
	for ; o+4 <= out; o += 4 {
		off := base + o*stride
		r0 := w[off+0*stride : off+0*stride+in : off+0*stride+in]
		r1 := w[off+1*stride : off+1*stride+in : off+1*stride+in]
		r2 := w[off+2*stride : off+2*stride+in : off+2*stride+in]
		r3 := w[off+3*stride : off+3*stride+in : off+3*stride+in]
		s0, s1, s2, s3 := dst[o], dst[o+1], dst[o+2], dst[o+3]
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < out; o++ {
		off := base + o*stride
		row := w[off : off+in : off+in]
		s := dst[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		dst[o] = s
	}
}

// seqDenseInto computes the whole-sequence dense product
// out[t][o] = bias[o] + w[o*in:(o+1)*in] · x[t] with the output tile as
// the outer loop: each four-row weight tile is loaded once and reused
// across every timestep (cache blocking), instead of re-walking the full
// weight matrix per timestep. Full-width timesteps go in pairs, so each
// weight element loaded feeds two rows' chains.
//
// Rows shorter than inDim contribute only their available inputs
// (zero-padding semantics). That is the post-Flatten short-window case: a
// stream-start window of T < maxT timesteps flattens to a T*d row feeding
// a Dense layer sized for maxT*d inputs.
func seqDenseInto(out, x [][]float64, w, bias []float64, outDim, inDim int) {
	o := 0
	for ; o+4 <= outDim; o += 4 {
		base := o * inDim
		r0 := w[base : base+inDim : base+inDim]
		r1 := w[base+inDim : base+2*inDim : base+2*inDim][:len(r0)]
		r2 := w[base+2*inDim : base+3*inDim : base+3*inDim][:len(r0)]
		r3 := w[base+3*inDim : base+4*inDim : base+4*inDim][:len(r0)]
		b0, b1, b2, b3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
		for t := 0; t < len(x); {
			xa := x[t]
			if t+1 < len(x) && len(xa) >= inDim && len(x[t+1]) >= inDim {
				xa, xb := xa[:len(r0)], x[t+1][:len(r0)]
				a0, a1, a2, a3 := b0, b1, b2, b3
				c0, c1, c2, c3 := b0, b1, b2, b3
				for i, w0 := range r0 {
					va, vb := xa[i], xb[i]
					a0 += w0 * va
					c0 += w0 * vb
					w1 := r1[i]
					a1 += w1 * va
					c1 += w1 * vb
					w2 := r2[i]
					a2 += w2 * va
					c2 += w2 * vb
					w3 := r3[i]
					a3 += w3 * va
					c3 += w3 * vb
				}
				oa, ob := out[t], out[t+1]
				oa[o], oa[o+1], oa[o+2], oa[o+3] = a0, a1, a2, a3
				ob[o], ob[o+1], ob[o+2], ob[o+3] = c0, c1, c2, c3
				t += 2
				continue
			}
			if len(xa) > inDim {
				xa = xa[:inDim]
			}
			s0, s1, s2, s3 := b0, b1, b2, b3
			for i, xi := range xa {
				s0 += r0[i] * xi
				s1 += r1[i] * xi
				s2 += r2[i] * xi
				s3 += r3[i] * xi
			}
			ot := out[t]
			ot[o], ot[o+1], ot[o+2], ot[o+3] = s0, s1, s2, s3
			t++
		}
	}
	for ; o < outDim; o++ {
		row := w[o*inDim : (o+1)*inDim : (o+1)*inDim]
		b := bias[o]
		for t := range x {
			xt := x[t]
			if len(xt) > inDim {
				xt = xt[:inDim]
			}
			s := b
			for i, xi := range xt {
				s += row[i] * xi
			}
			out[t][o] = s
		}
	}
}

// conv1dInto computes the valid-padding stride-1 1D convolution
// out[t][o] = bias[o] + Σ_k w[(o*K+k)*in : ...] · x[t+k][:in], truncating
// taps past the end of x (the graceful short-window degradation of
// Conv1D.Forward). Each lane's accumulation order is bias, then taps in
// ascending k, each tap input-index-ascending — identical to the scalar
// triple loop.
func conv1dInto(out, x [][]float64, w, bias []float64, outDim, inDim, K int) {
	T := len(x)
	for t := range out {
		dst := out[t][:outDim]
		copy(dst, bias[:outDim])
		for k := 0; k < K; k++ {
			ti := t + k
			if ti >= T {
				break
			}
			matvecStridedAccum(dst, w, x[ti], k*inDim, K*inDim, outDim, inDim)
		}
	}
}
