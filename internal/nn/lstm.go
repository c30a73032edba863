package nn

import (
	"math"
	"math/rand"
)

// LSTM is a single long short-term memory layer processing a sequence
// [T][In] into hidden states [T][Hidden], with full backpropagation through
// time over the window. Gate layout in the packed weight matrices is
// (input, forget, cell, output).
type LSTM struct {
	In, Hidden int

	Wx *Param // 4*Hidden x In, input-to-gates
	Wh *Param // 4*Hidden x Hidden, hidden-to-gates
	B  *Param // 4*Hidden

	// BPTT state of the last train-mode Forward: its input window, its
	// recurrence and the gate-gradient rows Backward fills. Both buffers
	// are reused by the next training sample.
	xs     [][]float64
	win    *lstmWindow
	dGates [][]float64
}

var _ Layer = (*LSTM)(nil)

// lstmWindow holds one window's recurrence. Its gates, cs and tcs rows
// are rings indexed modulo their length, so BPTT can keep every row while
// inference keeps only the few a step reads. A gate row first receives one
// timestep's pre-activations and is overwritten in place by its
// activations (i, f, g, o) as the step runs. hs[t] and cs[t] are the
// hidden and cell state entering step t, so hs[0] and cs[0] are the zero
// initial state and hs[1:] is the layer's output. tcs[t] is tanh(cs[t+1]),
// which BPTT reuses instead of recomputing.
type lstmWindow struct {
	gates [][]float64 // [T][4H], or [lstmInferRows][4H]
	hs    [][]float64 // [T+1][H]
	cs    [][]float64 // [T+1][H], or [2][H]: step t reads cs[t], writes cs[t+1]
	tcs   [][]float64 // [T][H], or [1][H]
}

// lstmInferRows is the number of gate rows an inference window holds: the
// input projection is computed that many timesteps at a time (the pair
// seqDenseInto processes together), so a stream's scratch does not grow
// with the window.
const lstmInferRows = 2

// newLSTMWindow allocates a zeroed window of up to maxT steps, with every
// row for BPTT or, for inference, only the ring rows a step reads.
func newLSTMWindow(maxT, hidden int, inference bool) *lstmWindow {
	if inference {
		return &lstmWindow{
			gates: seq(lstmInferRows, 4*hidden),
			hs:    seq(maxT+1, hidden),
			cs:    seq(2, hidden),
			tcs:   seq(1, hidden),
		}
	}
	return &lstmWindow{
		gates: seq(maxT, 4*hidden),
		hs:    seq(maxT+1, hidden),
		cs:    seq(maxT+1, hidden),
		tcs:   seq(maxT, hidden),
	}
}

// NewLSTM constructs an LSTM layer with Glorot-initialized weights and
// forget-gate bias of 1 (standard practice for training stability).
func NewLSTM(rng *rand.Rand, in, hidden int) *LSTM {
	l := &LSTM{
		In:     in,
		Hidden: hidden,
		Wx:     newParam("lstm.Wx", 4*hidden*in),
		Wh:     newParam("lstm.Wh", 4*hidden*hidden),
		B:      newParam("lstm.b", 4*hidden),
	}
	glorotInit(rng, l.Wx.W, in, hidden)
	glorotInit(rng, l.Wh.W, hidden, hidden)
	for i := hidden; i < 2*hidden; i++ { // forget-gate bias
		l.B.W[i] = 1
	}
	return l
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// run is the LSTM forward shared by training and inference. It computes
// bias + Wx·x_t for a block of timesteps in one cache-blocked pass, then
// runs the recurrence over the block, adding Wh·h_{t-1} to each row before
// its activations. Each gate lane's accumulation order — bias, then the
// Wx terms, then the Wh terms — is the one chain of the per-step scalar
// loop, so the states are bit-identical to it. A block is as many
// timesteps as w.gates has rows: the whole window for BPTT, which reads
// every row back, and lstmInferRows for inference. w.hs[0] and w.cs[0]
// must be zero.
func (l *LSTM) run(x [][]float64, w *lstmWindow) {
	T, H := len(x), l.Hidden
	for t0 := 0; t0 < T; t0 += len(w.gates) {
		gates := w.gates[:min(len(w.gates), T-t0)]
		seqDenseInto(gates, x[t0:t0+len(gates)], l.Wx.W, l.B.W, 4*H, l.In)
		for k, a := range gates {
			t := t0 + k
			matvecAccum(a, l.Wh.W, w.hs[t], 4*H, H)
			cPrev, c := w.cs[t%len(w.cs)], w.cs[(t+1)%len(w.cs)]
			tc, h := w.tcs[t%len(w.tcs)], w.hs[t+1]
			for j := 0; j < H; j++ {
				i := sigmoid(a[j])
				f := sigmoid(a[H+j])
				g := math.Tanh(a[2*H+j])
				o := sigmoid(a[3*H+j])
				cv := f*cPrev[j] + i*g
				tv := math.Tanh(cv)
				a[j], a[H+j], a[2*H+j], a[3*H+j] = i, f, g, o
				c[j], tc[j] = cv, tv
				h[j] = o * tv
			}
		}
	}
}

// Forward implements Layer, running the full window with state reset.
// BPTT caches are only written in train mode, keeping inference read-only
// (and therefore safe for concurrent streams sharing one trained network).
// In train mode the returned window is the layer's own cache and is
// overwritten by the next train-mode Forward.
func (l *LSTM) Forward(x [][]float64, train bool) [][]float64 {
	T := len(x)
	if !train {
		w := newLSTMWindow(T, l.Hidden, true)
		l.run(x, w)
		return w.hs[1:]
	}
	if l.win == nil || len(l.win.gates) < T {
		l.win = newLSTMWindow(T, l.Hidden, false)
	}
	l.xs = x
	l.run(x, l.win)
	return l.win.hs[1 : T+1]
}

// Backward implements Layer (full BPTT over the cached window).
func (l *LSTM) Backward(gradOut [][]float64) [][]float64 {
	l.backwardParams(gradOut)
	gradIn := seq(len(l.xs), l.In)
	seqTAccum(gradIn, l.dGates[:len(l.xs)], l.Wx.W, 4*l.Hidden, l.In)
	return gradIn
}

// backwardParams is Backward without the input gradient, which the first
// layer of a network does not need. BPTT runs in two phases. The recurrent
// pass walks t = T-1…0 computing each step's gate gradients and the one
// quantity the next step needs, dh = Whᵀ·dGate. The parameter gradients
// depend on nothing else, so blocked passes over the stored gate
// gradients compute them afterwards, each element in the order of the
// per-step scalar loop (see kernel.go).
func (l *LSTM) backwardParams(gradOut [][]float64) {
	T, H := len(l.xs), l.Hidden
	w := l.win
	if len(l.dGates) < T {
		l.dGates = seq(T, 4*H)
	}
	dGates := l.dGates[:T]
	dhNext := make([]float64, H)
	dcNext := make([]float64, H)
	for t := T - 1; t >= 0; t-- {
		a, dG, gOut := w.gates[t], dGates[t], gradOut[t]
		cPrev, tcCur := w.cs[t], w.tcs[t]
		for j := 0; j < H; j++ {
			dh := gOut[j] + dhNext[j]
			tc := tcCur[j]
			i, f, g, o := a[j], a[H+j], a[2*H+j], a[3*H+j]
			do := dh * tc
			dc := dh*o*(1-tc*tc) + dcNext[j]
			di := dc * g
			dg := dc * i
			df := dc * cPrev[j]
			dcNext[j] = dc * f
			// pre-activation gradients
			dG[j] = di * i * (1 - i)
			dG[H+j] = df * f * (1 - f)
			dG[2*H+j] = dg * (1 - g*g)
			dG[3*H+j] = do * o * (1 - o)
		}
		if t > 0 {
			for j := range dhNext {
				dhNext[j] = 0
			}
			matvecTAccum(dhNext, l.Wh.W, dG, 4*H, H)
		}
	}

	for t := T - 1; t >= 0; t-- {
		for g, d := range dGates[t] {
			if d != 0 {
				l.B.G[g] += d
			}
		}
	}
	outerAccum(l.Wx.G, dGates, l.xs, 4*H, l.In)
	outerAccum(l.Wh.G, dGates, w.hs[:T], 4*H, H)
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// OutDim implements Layer.
func (l *LSTM) OutDim(int) int { return l.Hidden }
