package nn

import (
	"errors"
	"fmt"
	"math/rand"
)

// Sample is one training example: a [T][D] input window and a class label.
type Sample struct {
	X [][]float64
	Y int
	// Weight scales the sample's loss; 0 means 1.
	Weight float64
}

// Network is a sequential stack of layers ending in a logits layer; the
// softmax is folded into the loss.
type Network struct {
	Layers []Layer
}

// NewNetwork builds a sequential network from layers.
func NewNetwork(layers ...Layer) *Network {
	return &Network{Layers: layers}
}

// Params returns all learnable parameters of the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumWeights returns the total number of learnable weights.
func (n *Network) NumWeights() int {
	var total int
	for _, p := range n.Params() {
		total += len(p.W)
	}
	return total
}

// Forward runs the network on a window, returning the final logits (the
// last layer must reduce to a single timestep).
func (n *Network) Forward(x [][]float64, train bool) []float64 {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	if len(x) == 0 {
		return nil
	}
	return x[len(x)-1]
}

// Predict returns class probabilities for a window (inference mode).
func (n *Network) Predict(x [][]float64) []float64 {
	return Softmax(n.Forward(x, false))
}

// PredictClass returns the argmax class for a window.
func (n *Network) PredictClass(x [][]float64) int {
	return Argmax(n.Forward(x, false))
}

// backward pushes a logits gradient through the network. Nothing reads
// the first layer's input gradient, so a leading LSTM skips computing it.
func (n *Network) backward(grad []float64) {
	g := [][]float64{grad}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if l, ok := n.Layers[i].(*LSTM); i == 0 && ok {
			l.backwardParams(g)
			return
		}
		g = n.Layers[i].Backward(g)
	}
}

// TrainConfig controls Network.Fit.
type TrainConfig struct {
	Epochs     int
	BatchSize  int
	LR         float64
	DecayEvery int     // epochs between LR decays (0 = none)
	DecayRate  float64 // multiplicative decay factor
	ClipNorm   float64 // gradient clip (0 = none)
	// Patience is the early-stopping patience in epochs over validation
	// loss; 0 disables early stopping.
	Patience int
	// Rng shuffles mini-batches. Required.
	Rng *rand.Rand
	// Verbose, if non-nil, receives one line per epoch.
	Verbose func(string)
}

// ErrNoTrainingData is returned when Fit receives an empty training set.
var ErrNoTrainingData = errors.New("nn: no training data")

// FitResult summarizes a training run.
type FitResult struct {
	Epochs       int
	FinalLoss    float64
	BestValLoss  float64
	StoppedEarly bool
	FinalLR      float64
}

// Fit trains the network with Adam + step decay and early stopping on a
// held-out validation set (paper §III). val may be empty, in which case
// early stopping is disabled and training runs all epochs.
func (n *Network) Fit(train, val []Sample, cfg TrainConfig) (FitResult, error) {
	if len(train) == 0 {
		return FitResult{}, ErrNoTrainingData
	}
	if cfg.Rng == nil {
		return FitResult{}, errors.New("nn: TrainConfig.Rng is required")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	opt := NewAdam(cfg.LR)
	opt.DecayEvery = cfg.DecayEvery
	opt.DecayFactor = cfg.DecayRate
	opt.ClipNorm = cfg.ClipNorm
	params := n.Params()

	idx := make([]int, len(train))
	for i := range idx {
		idx[i] = i
	}

	res := FitResult{BestValLoss: 1e300}
	var bestWeights [][]float64
	badEpochs := 0

	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		cfg.Rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for _, i := range idx[start:end] {
				s := train[i]
				logits := n.Forward(s.X, true)
				w := s.Weight
				if w == 0 {
					w = 1
				}
				loss, grad := WeightedCrossEntropyLoss(logits, s.Y, w)
				epochLoss += loss
				n.backward(grad)
			}
			opt.Step(params, end-start)
		}
		epochLoss /= float64(len(train))
		res.FinalLoss = epochLoss
		res.Epochs = epoch
		opt.EndEpoch(epoch)

		if len(val) > 0 {
			valLoss := n.EvalLoss(val)
			if cfg.Verbose != nil {
				cfg.Verbose(fmt.Sprintf("epoch %d: train loss %.4f, val loss %.4f, lr %.2g", epoch, epochLoss, valLoss, opt.LR))
			}
			if valLoss < res.BestValLoss-1e-6 {
				res.BestValLoss = valLoss
				badEpochs = 0
				bestWeights = snapshot(params)
			} else if cfg.Patience > 0 {
				badEpochs++
				if badEpochs >= cfg.Patience {
					res.StoppedEarly = true
					break
				}
			}
		} else if cfg.Verbose != nil {
			cfg.Verbose(fmt.Sprintf("epoch %d: train loss %.4f, lr %.2g", epoch, epochLoss, opt.LR))
		}
	}
	if bestWeights != nil {
		restore(params, bestWeights)
	}
	res.FinalLR = opt.LR
	return res, nil
}

// EvalLoss computes the mean cross-entropy over a sample set.
func (n *Network) EvalLoss(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var total float64
	for _, s := range samples {
		logits := n.Forward(s.X, false)
		w := s.Weight
		if w == 0 {
			w = 1
		}
		loss, _ := WeightedCrossEntropyLoss(logits, s.Y, w)
		total += loss
	}
	return total / float64(len(samples))
}

// Accuracy computes classification accuracy over a sample set.
func (n *Network) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if n.PredictClass(s.X) == s.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

func snapshot(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = make([]float64, len(p.W))
		copy(out[i], p.W)
	}
	return out
}

func restore(params []*Param, weights [][]float64) {
	for i, p := range params {
		copy(p.W, weights[i])
	}
}
