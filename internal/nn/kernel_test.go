package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernels in kernel.go claim bit-identity with the scalar loops they
// replaced. These tests pin that claim: reference implementations of the
// original loops live here, and every kernel must match them with exact
// float64 equality (==, not a tolerance) across randomized shapes —
// including out-dims that are not a multiple of the 4-lane tile, single-
// timestep windows, and kernels wider than the window.

// refMatvec is the scalar loop Dense/LSTM used per output lane.
func refMatvec(dst, w, bias, x []float64, out, in int) {
	for o := 0; o < out; o++ {
		sum := bias[o]
		row := w[o*in : (o+1)*in]
		for i := 0; i < in; i++ {
			sum += row[i] * x[i]
		}
		dst[o] = sum
	}
}

// refGates is LSTM.gates as it was before vectorization.
func refGates(dst, wx, wh, b, x, h []float64, hidden, in int) {
	for g := 0; g < 4*hidden; g++ {
		sum := b[g]
		wxRow := wx[g*in : (g+1)*in]
		for i := 0; i < in; i++ {
			sum += wxRow[i] * x[i]
		}
		whRow := wh[g*hidden : (g+1)*hidden]
		for i := 0; i < hidden; i++ {
			sum += whRow[i] * h[i]
		}
		dst[g] = sum
	}
}

// refConv1d is Conv1D's scalar triple loop.
func refConv1d(out, x [][]float64, w, bias []float64, outDim, inDim, K int) {
	T := len(x)
	for t := range out {
		for o := 0; o < outDim; o++ {
			sum := bias[o]
			for k := 0; k < K; k++ {
				ti := t + k
				if ti >= T {
					break
				}
				row := w[(o*K+k)*inDim : (o*K+k+1)*inDim]
				xt := x[ti]
				for i := 0; i < inDim; i++ {
					sum += row[i] * xt[i]
				}
			}
			out[t][o] = sum
		}
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// kernelShapes covers both tile-aligned and ragged dimensions, down to 1.
var kernelShapes = []struct{ out, in int }{
	{1, 1}, {1, 7}, {2, 3}, {3, 5}, {4, 4}, {4, 1}, {5, 9},
	{7, 13}, {8, 8}, {9, 3}, {12, 5}, {13, 2}, {16, 31}, {20, 6},
	{31, 16}, {64, 19}, {128, 38},
}

func TestMatvecKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range kernelShapes {
		w := randVec(rng, sh.out*sh.in)
		x := randVec(rng, sh.in)

		// Accum continues an existing chain: a bias-seeded reference chain
		// is the same chain.
		seed := randVec(rng, sh.out)
		want := make([]float64, sh.out)
		got := append([]float64(nil), seed...)
		matvecAccum(got, w, x, sh.out, sh.in)
		refMatvec(want, w, seed, x, sh.out, sh.in)
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("matvecAccum %dx%d lane %d: %v != %v", sh.out, sh.in, o, got[o], want[o])
			}
		}
	}
}

func TestSeqDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sh := range kernelShapes {
		for _, T := range []int{1, 2, 5, 10} {
			w := randVec(rng, sh.out*sh.in)
			bias := randVec(rng, sh.out)
			x := randSeq(rng, T, sh.in)
			want := randSeq(rng, T, sh.out)
			got := randSeq(rng, T, sh.out)
			for t2 := 0; t2 < T; t2++ {
				refMatvec(want[t2], w, bias, x[t2], sh.out, sh.in)
			}
			seqDenseInto(got, x, w, bias, sh.out, sh.in)
			for t2 := 0; t2 < T; t2++ {
				for o := range want[t2] {
					if got[t2][o] != want[t2][o] {
						t.Fatalf("seqDenseInto %dx%d T=%d t=%d lane %d: %v != %v",
							sh.out, sh.in, T, t2, o, got[t2][o], want[t2][o])
					}
				}
			}
		}
	}
}

func TestConv1dKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range kernelShapes {
		for _, K := range []int{1, 2, 3, 5} {
			for _, T := range []int{1, 2, 4, 9} {
				outT := T - K + 1
				if outT < 1 {
					outT = 1 // kernel wider than window: truncated taps
				}
				w := randVec(rng, sh.out*K*sh.in)
				bias := randVec(rng, sh.out)
				x := randSeq(rng, T, sh.in)
				want := randSeq(rng, outT, sh.out)
				got := randSeq(rng, outT, sh.out)
				refConv1d(want, x, w, bias, sh.out, sh.in, K)
				conv1dInto(got, x, w, bias, sh.out, sh.in, K)
				for t2 := range want {
					for o := range want[t2] {
						if got[t2][o] != want[t2][o] {
							t.Fatalf("conv1dInto %dx%d K=%d T=%d t=%d lane %d: %v != %v",
								sh.out, sh.in, K, T, t2, o, got[t2][o], want[t2][o])
						}
					}
				}
			}
		}
	}
}

// TestPredictorShortWindowAfterFlatten pins the post-Flatten ragged-width
// case: a Predictor sized for maxT timesteps must produce outputs
// bit-identical to Network.Forward when the runtime window is shorter,
// which makes the Flatten output row (T*d) narrower than the Dense layer
// was sized for at scratch allocation (maxT*d).
func TestPredictorShortWindowAfterFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const maxT, d = 10, 6
	net := &Network{Layers: []Layer{
		NewDense(rng, d, 8),
		&ReLU{},
		&Flatten{},
		NewDense(rng, maxT*8, 3),
	}}
	p := net.NewPredictor(maxT, d)
	for _, T := range []int{1, 2, 4, maxT} {
		x := randSeq(rng, T, d)
		// The trailing Dense is sized for maxT*8 inputs; shorter windows
		// exercise the kernel's ragged input tail. Forward only reads the
		// first T*8 weights of each row through the T*8-wide Flatten row,
		// so slice the comparison to what both paths compute.
		inDim := T * 8
		dense := net.Layers[3].(*Dense)
		wantRow := make([]float64, dense.Out)
		flat := net.Layers[2].Forward(net.Layers[1].Forward(net.Layers[0].Forward(x, false), false), false)
		refMatvecRagged(wantRow, dense.Weight.W, dense.Bias.W, flat[0], dense.Out, dense.In, inDim)
		got := p.Forward(x)
		for o := range wantRow {
			if got[o] != wantRow[o] {
				t.Fatalf("T=%d lane %d: predictor %v != reference %v", T, o, got[o], wantRow[o])
			}
		}
	}
}

// refMatvecRagged is refMatvec where each weight row is rowWidth wide but
// only the first in inputs participate (the short-window Flatten case).
func refMatvecRagged(dst, w, bias, x []float64, out, rowWidth, in int) {
	for o := 0; o < out; o++ {
		sum := bias[o]
		row := w[o*rowWidth : o*rowWidth+in]
		for i := 0; i < in; i++ {
			sum += row[i] * x[i]
		}
		dst[o] = sum
	}
}

// Benchmark pairs: the pre-vectorization scalar loops (ref*) against the
// kernels that replaced them, at dimensions typical of the monitor's
// heads (window 10, a few dozen features, hidden 32).

func benchSeq(rng *rand.Rand, T, d int) [][]float64 {
	x := make([][]float64, T)
	for t := range x {
		x[t] = randVec(rng, d)
	}
	return x
}

func BenchmarkSeqDenseNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const T, in, out = 10, 40, 64
	x := benchSeq(rng, T, in)
	w, bias := randVec(rng, out*in), randVec(rng, out)
	dst := benchSeq(rng, T, out)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for t := 0; t < T; t++ {
			refMatvec(dst[t], w, bias, x[t], out, in)
		}
	}
}

func BenchmarkSeqDenseKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const T, in, out = 10, 40, 64
	x := benchSeq(rng, T, in)
	w, bias := randVec(rng, out*in), randVec(rng, out)
	dst := benchSeq(rng, T, out)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		seqDenseInto(dst, x, w, bias, out, in)
	}
}

func BenchmarkLSTMGatesNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const hidden, in = 32, 40
	wx, wh := randVec(rng, 4*hidden*in), randVec(rng, 4*hidden*hidden)
	bias := randVec(rng, 4*hidden)
	x, h := randVec(rng, in), randVec(rng, hidden)
	dst := make([]float64, 4*hidden)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		refGates(dst, wx, wh, bias, x, h, hidden, in)
	}
}

func BenchmarkLSTMGatesKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const hidden, in = 32, 40
	wx, wh := randVec(rng, 4*hidden*in), randVec(rng, 4*hidden*hidden)
	bias := randVec(rng, 4*hidden)
	x, h := randVec(rng, in), randVec(rng, hidden)
	dst := make([]float64, 4*hidden)
	b.ReportAllocs()
	b.ResetTimer()
	x1, dst1 := [][]float64{x}, [][]float64{dst}
	for n := 0; n < b.N; n++ {
		seqDenseInto(dst1, x1, wx, bias, 4*hidden, in)
		matvecAccum(dst, wh, h, 4*hidden, hidden)
	}
}

func BenchmarkConv1dNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const T, in, out, K = 10, 16, 32, 3
	x := benchSeq(rng, T, in)
	w, bias := randVec(rng, out*K*in), randVec(rng, out)
	dst := benchSeq(rng, T-K+1, out)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		refConv1d(dst, x, w, bias, out, in, K)
	}
}

func BenchmarkConv1dKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const T, in, out, K = 10, 16, 32, 3
	x := benchSeq(rng, T, in)
	w, bias := randVec(rng, out*K*in), randVec(rng, out)
	dst := benchSeq(rng, T-K+1, out)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		conv1dInto(dst, x, w, bias, out, in, K)
	}
}

// BenchmarkLSTMTrainStep is one training step of the gesture classifier's
// default stack (38 features → LSTM 32 → LSTM 16 → dense head) on a
// 12-step window: train-mode forward, loss, and full BPTT backward. It
// allocates by design (dropout masks, dense-layer caches and input
// gradients are fresh per sample), so benchguard records its allocs/op
// but gates only its median ns/op.
func BenchmarkLSTMTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	net := BuildStackedLSTM(rng, StackedLSTMConfig{
		InputDim: 38, LSTMUnits: []int{32, 16}, DenseUnits: 16,
		NumClasses: 16, Dropout: 0.1,
	})
	x := benchSeq(rng, 12, 38)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_, grad := CrossEntropyLoss(net.Forward(x, true), n%16)
		net.backward(grad)
	}
}

// ---- LSTM training exactness ----
//
// refLSTM is the LSTM's train-mode forward and scalar BPTT as they were
// before the backward was split into a recurrent pass and blocked gradient
// passes: per-step gates from refGates, and one loop over gate rows per
// timestep that updates every gradient at once. The restructured layer
// must reproduce its every float bit for bit (compared as
// math.Float64bits, so -0 and NaN payloads count).
type refLSTM struct {
	in, hidden   int
	wx, wh, b    []float64
	gwx, gwh, gb []float64

	xs              [][]float64
	hs, cs          [][]float64
	gi, gf, gg, g_o [][]float64
}

func newRefLSTM(l *LSTM) *refLSTM {
	return &refLSTM{
		in: l.In, hidden: l.Hidden, wx: l.Wx.W, wh: l.Wh.W, b: l.B.W,
		gwx: append([]float64(nil), l.Wx.G...),
		gwh: append([]float64(nil), l.Wh.G...),
		gb:  append([]float64(nil), l.B.G...),
	}
}

func (r *refLSTM) forward(x [][]float64) [][]float64 {
	T, H := len(x), r.hidden
	out := seq(T, H)
	h := make([]float64, H)
	c := make([]float64, H)
	r.xs = x
	r.hs, r.cs = seq(T+1, H), seq(T+1, H)
	r.gi, r.gf, r.gg, r.g_o = seq(T, H), seq(T, H), seq(T, H), seq(T, H)
	pre := make([]float64, 4*H)
	for t := 0; t < T; t++ {
		refGates(pre, r.wx, r.wh, r.b, x[t], h, H, r.in)
		for j := 0; j < H; j++ {
			i := sigmoid(pre[j])
			f := sigmoid(pre[H+j])
			g := math.Tanh(pre[2*H+j])
			o := sigmoid(pre[3*H+j])
			cv := f*c[j] + i*g
			hv := o * math.Tanh(cv)
			r.gi[t][j], r.gf[t][j], r.gg[t][j], r.g_o[t][j] = i, f, g, o
			r.cs[t+1][j] = cv
			r.hs[t+1][j] = hv
			c[j] = cv
			h[j] = hv
			out[t][j] = hv
		}
	}
	return out
}

func (r *refLSTM) backward(gradOut [][]float64) [][]float64 {
	T, H := len(r.xs), r.hidden
	gradIn := seq(T, r.in)
	dhNext := make([]float64, H)
	dcNext := make([]float64, H)
	dGate := make([]float64, 4*H)
	for t := T - 1; t >= 0; t-- {
		for j := 0; j < H; j++ {
			dh := gradOut[t][j] + dhNext[j]
			c := r.cs[t+1][j]
			tc := math.Tanh(c)
			o := r.g_o[t][j]
			do := dh * tc
			dc := dh*o*(1-tc*tc) + dcNext[j]
			i, f, g := r.gi[t][j], r.gf[t][j], r.gg[t][j]
			di := dc * g
			dg := dc * i
			df := dc * r.cs[t][j]
			dcNext[j] = dc * f
			dGate[j] = di * i * (1 - i)
			dGate[H+j] = df * f * (1 - f)
			dGate[2*H+j] = dg * (1 - g*g)
			dGate[3*H+j] = do * o * (1 - o)
		}
		for j := range dhNext {
			dhNext[j] = 0
		}
		xt, ht := r.xs[t], r.hs[t]
		for g := 0; g < 4*H; g++ {
			dg := dGate[g]
			if dg == 0 {
				continue
			}
			r.gb[g] += dg
			wxRow := r.wx[g*r.in : (g+1)*r.in]
			gxRow := r.gwx[g*r.in : (g+1)*r.in]
			gi := gradIn[t]
			for i := 0; i < r.in; i++ {
				gxRow[i] += dg * xt[i]
				gi[i] += dg * wxRow[i]
			}
			whRow := r.wh[g*H : (g+1)*H]
			ghRow := r.gwh[g*H : (g+1)*H]
			for i := 0; i < H; i++ {
				ghRow[i] += dg * ht[i]
				dhNext[i] += dg * whRow[i]
			}
		}
	}
	return gradIn
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d]: %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func requireSameSeq(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for r := range want {
		requireSameBits(t, fmt.Sprintf("%s[%d]", what, r), got[r], want[r])
	}
}

// signedZeroGrads seeds a gradient buffer the way a mini-batch leaves it:
// mostly finite values, with runs of +0 and -0 accumulators that an added
// 0·x term (instead of a skipped one) would flip.
func signedZeroGrads(rng *rand.Rand, g []float64) {
	for i := range g {
		switch rng.Intn(4) {
		case 0:
			g[i] = 0
		case 1:
			g[i] = math.Copysign(0, -1)
		default:
			g[i] = rng.NormFloat64()
		}
	}
}

// lstmShapes cover In and Hidden below, at and off the 4- and 8-lane
// tiles, plus the gesture classifier's own 38→32 and 32→16 layers.
var lstmShapes = []struct{ in, hidden int }{
	{1, 1}, {2, 3}, {3, 5}, {5, 2}, {7, 3}, {9, 13}, {13, 9},
	{6, 7}, {11, 10}, {38, 32}, {32, 16},
}

func TestLSTMGatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sh := range lstmShapes {
		for _, T := range []int{1, 2, 5, 12} {
			l := NewLSTM(rng, sh.in, sh.hidden)
			x := randSeq(rng, T, sh.in)
			ref := newRefLSTM(l)
			want := ref.forward(x)
			what := fmt.Sprintf("in=%d hidden=%d T=%d", sh.in, sh.hidden, T)

			requireSameSeq(t, what+" train out", l.Forward(x, true), want)
			H := sh.hidden
			for s := 0; s < T; s++ {
				a := l.win.gates[s]
				requireSameBits(t, what+" i", a[:H], ref.gi[s])
				requireSameBits(t, what+" f", a[H:2*H], ref.gf[s])
				requireSameBits(t, what+" g", a[2*H:3*H], ref.gg[s])
				requireSameBits(t, what+" o", a[3*H:], ref.g_o[s])
			}
			requireSameSeq(t, what+" cells", l.win.cs, ref.cs)
			requireSameSeq(t, what+" hidden", l.win.hs, ref.hs)
			requireSameSeq(t, what+" infer out", l.Forward(x, false), want)

			// A reused inference scratch, dirtied by a longer window
			// first, must start the next window from the zero state.
			scr := l.newScratch(12, sh.in)
			l.infer(randSeq(rng, 12, sh.in), scr)
			requireSameSeq(t, what+" reused scratch", l.infer(x, scr), want)
		}
	}
}

// TestLSTMBackwardMatchesReference drives the split BPTT and the scalar
// reference through the same windows, including hidden units whose gate
// gradients are exactly zero at every step (a zero Wh column plus zero
// output gradient) and the TakeLast pattern (zero output gradient
// everywhere but the last step), over gradient buffers seeded with signed
// zeros. Two samples per case check accumulation across a mini-batch and
// the reuse of a longer window's buffers by a shorter one; the second
// goes through backwardParams, the first layer's path without an input
// gradient.
func TestLSTMBackwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, sh := range lstmShapes {
		for _, T := range []int{1, 2, 5, 12} {
			for _, pattern := range []string{"dense", "dead-units", "take-last"} {
				what := fmt.Sprintf("in=%d hidden=%d T=%d %s", sh.in, sh.hidden, T, pattern)
				l := NewLSTM(rng, sh.in, sh.hidden)
				H := sh.hidden
				dead := map[int]bool{}
				if pattern == "dead-units" {
					for j := 0; j < H; j += 3 {
						dead[j] = true
						for g := 0; g < 4*H; g++ {
							l.Wh.W[g*H+j] = 0
						}
					}
				}
				for _, p := range l.Params() {
					signedZeroGrads(rng, p.G)
				}
				ref := newRefLSTM(l)
				for sample, sT := range []int{T, (T + 1) / 2} {
					x := randSeq(rng, sT, sh.in)
					gradOut := randSeq(rng, sT, H)
					for s := range gradOut {
						for j := range gradOut[s] {
							if dead[j] || (pattern == "take-last" && s < sT-1) {
								gradOut[s][j] = 0
							}
						}
					}
					ref.forward(x)
					l.Forward(x, true)
					wantIn := ref.backward(gradOut)
					if sample == 0 {
						requireSameSeq(t, what+" gradIn", l.Backward(gradOut), wantIn)
					} else {
						l.backwardParams(gradOut)
					}
					requireSameBits(t, what+" B.G", l.B.G, ref.gb)
					requireSameBits(t, what+" Wx.G", l.Wx.G, ref.gwx)
					requireSameBits(t, what+" Wh.G", l.Wh.G, ref.gwh)
				}
			}
		}
	}
}

// refTAccum and refOuterAccum are the per-row loops the blocked backward
// kernels replace.
func refTAccum(dst, w, d []float64, rows, n int) {
	for g := 0; g < rows; g++ {
		if d[g] == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			dst[i] += d[g] * w[g*n+i]
		}
	}
}

func refOuterAccum(G []float64, d, x [][]float64, rows, n int) {
	for t := len(d) - 1; t >= 0; t-- {
		for g := 0; g < rows; g++ {
			if d[t][g] == 0 {
				continue
			}
			for i := 0; i < n; i++ {
				G[g*n+i] += d[t][g] * x[t][i]
			}
		}
	}
}

// sprinkle overwrites a share of v with +0, -0 and ±Inf, the values whose
// skipped-versus-added handling the backward kernels must get right.
func sprinkle(rng *rand.Rand, v []float64, withInf bool) {
	for i := range v {
		switch r := rng.Intn(10); {
		case r == 0:
			v[i] = 0
		case r == 1:
			v[i] = math.Copysign(0, -1)
		case r == 2 && withInf:
			v[i] = math.Inf(1 - 2*rng.Intn(2))
		}
	}
}

func TestBackwardKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range kernelShapes {
		rows, n := sh.out, sh.in
		for _, T := range []int{1, 3, 12} {
			what := fmt.Sprintf("%dx%d T=%d", rows, n, T)
			w := randVec(rng, rows*n)
			sprinkle(rng, w, true)
			d := randVec(rng, rows)
			sprinkle(rng, d, false)
			dst := randVec(rng, n)
			sprinkle(rng, dst, false)
			want := append([]float64(nil), dst...)
			refTAccum(want, w, d, rows, n)
			matvecTAccum(dst, w, d, rows, n)
			requireSameBits(t, what+" matvecTAccum", dst, want)

			ds := randSeq(rng, T, rows)
			xs := randSeq(rng, T, n)
			for s := range ds {
				sprinkle(rng, ds[s], false)
				sprinkle(rng, xs[s], true)
			}
			G := randVec(rng, rows*n)
			sprinkle(rng, G, false)
			wantG := append([]float64(nil), G...)
			refOuterAccum(wantG, ds, xs, rows, n)
			outerAccum(G, ds, xs, rows, n)
			requireSameBits(t, what+" outerAccum", G, wantG)

			dst2 := randSeq(rng, T, n)
			want2 := make([][]float64, T)
			for s := range dst2 {
				sprinkle(rng, dst2[s], false)
				want2[s] = append([]float64(nil), dst2[s]...)
				refTAccum(want2[s], w, ds[s], rows, n)
			}
			seqTAccum(dst2, ds, w, rows, n)
			requireSameSeq(t, what+" seqTAccum", dst2, want2)
		}
	}
}
