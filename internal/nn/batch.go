package nn

// BatchPredictor runs B streams' scratch inference through one shared
// network in a single pass per layer, so each weight tile is loaded from
// memory once per batch instead of once per stream — the cross-session
// micro-batch the serve shards dispatch for concurrent armed streams.
//
// Every stream occupies one slot with its own per-layer scratch, and the
// batched kernels preserve each stream's exact accumulation chains, so
// slot b's outputs are bit-identical to running that stream alone through
// a Predictor (the property pinned by batch_test.go). Like Predictor, a
// warm BatchPredictor performs zero heap allocations per call and is not
// safe for concurrent use: create one per batching goroutine.
type BatchPredictor struct {
	net     *Network
	slots   []*Predictor
	cur     [][][]float64
	outs    [][][]float64
	rowsX   [][]float64 // flattened input rows for the dense row kernels
	rowsO   [][]float64 // matching output rows
	logits  [][]float64
	classes []int
}

// NewBatchPredictor builds a batched inference workspace for up to maxB
// concurrent windows of at most maxT timesteps with inDim input features.
func (n *Network) NewBatchPredictor(maxB, maxT, inDim int) *BatchPredictor {
	bp := &BatchPredictor{
		net:     n,
		slots:   make([]*Predictor, maxB),
		cur:     make([][][]float64, maxB),
		outs:    make([][][]float64, maxB),
		rowsX:   make([][]float64, 0, maxB*maxT),
		rowsO:   make([][]float64, 0, maxB*maxT),
		logits:  make([][]float64, maxB),
		classes: make([]int, maxB),
	}
	for b := range bp.slots {
		bp.slots[b] = n.NewPredictor(maxT, inDim)
	}
	return bp
}

// MaxBatch returns the slot capacity the predictor was built with.
func (bp *BatchPredictor) MaxBatch() int { return len(bp.slots) }

// Forward runs the network on len(xs) windows (len(xs) ≤ maxB; windows may
// be ragged) and returns one final-logits row per window, nil for empty
// windows. Returned rows are slot scratch and are overwritten by the next
// call.
func (bp *BatchPredictor) Forward(xs [][][]float64) [][]float64 {
	B := len(xs)
	cur := bp.cur[:B]
	copy(cur, xs)
	for i, l := range bp.net.Layers {
		switch v := l.(type) {
		case *Dense:
			// Flatten every stream's window rows into one list so the row
			// kernels can pair rows across stream boundaries (the pairing
			// is what buys the batch its ILP and weight reuse).
			outs := bp.gatherOuts(cur, i)
			rowsX, rowsO := bp.rowsX[:0], bp.rowsO[:0]
			for b, x := range cur {
				ob := outs[b]
				for t := range x {
					rowsX = append(rowsX, x[t])
					rowsO = append(rowsO, ob[t])
				}
			}
			bp.rowsX, bp.rowsO = rowsX, rowsO
			if v.Qnt != nil {
				denseRowsQuantInto(rowsO, rowsX, v.Qnt.Q, v.Qnt.Scale, v.Bias.W, v.Out, v.In)
			} else {
				denseRowsInto(rowsO, rowsX, v.Weight.W, v.Bias.W, v.Out, v.In)
			}
			copy(cur, outs)
		case *Conv1D:
			// Per-stream conv calls back to back: the K·In weight rows stay
			// hot across consecutive streams without restructuring the
			// tap-ordered accumulation. LSTMs take the default per-stream
			// path for the same reason: their Wx and Wh tiles stay hot.
			for b, x := range cur {
				cur[b] = v.infer(x, bp.slots[b].scr[i])
			}
		default:
			for b, x := range cur {
				if il, ok := l.(inferable); ok {
					cur[b] = il.infer(x, bp.slots[b].scr[i])
				} else {
					cur[b] = l.Forward(x, false)
				}
			}
		}
	}
	logits := bp.logits[:B]
	for b, x := range cur {
		if len(x) == 0 {
			logits[b] = nil
		} else {
			logits[b] = x[len(x)-1]
		}
	}
	return logits
}

// gatherOuts points outs[b] at slot b's scratch rows for layer i, sized to
// stream b's current window length.
func (bp *BatchPredictor) gatherOuts(cur [][][]float64, i int) [][][]float64 {
	outs := bp.outs[:len(cur)]
	for b, x := range cur {
		outs[b] = bp.slots[b].scr[i].rows[:len(x)]
	}
	return outs
}

// Predict returns class probabilities per window, each row backed by that
// slot's probability buffer (overwritten by the next call).
func (bp *BatchPredictor) Predict(xs [][][]float64) [][]float64 {
	logits := bp.Forward(xs)
	for b, lg := range logits {
		logits[b] = SoftmaxInto(bp.slots[b].probs[:len(lg)], lg)
	}
	return logits
}

// PredictClass returns the argmax class per window. The returned slice is
// the predictor's own buffer and is overwritten by the next call.
func (bp *BatchPredictor) PredictClass(xs [][][]float64) []int {
	logits := bp.Forward(xs)
	classes := bp.classes[:len(logits)]
	for b, lg := range logits {
		classes[b] = Argmax(lg)
	}
	return classes
}
