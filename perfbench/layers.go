package main

// Parts (c) and (d) of the traced run: the workload's frames replayed
// through the model layers, the codecs and the guard, each timed from
// outside through the layer's public functions.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kinematics"
	"repro/internal/nn"
	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/serve"
)

// fitMonitor fits the two-stage core.Monitor exactly as the
// context-aware backend (and the cascade's inner stage) fits it: the
// same configs, epochs, training stride and seeds.
func fitMonitor(train []*safemon.Trajectory, seed int64) (*core.Monitor, error) {
	el := core.DefaultErrorDetectorConfig()
	el.Epochs, el.TrainStride, el.Seed = fitEpochs, fitStride, seed+7
	lib, err := core.TrainErrorLibrary(train, el)
	if err != nil {
		return nil, fmt.Errorf("error stage: %w", err)
	}
	gc := core.DefaultGestureClassifierConfig()
	gc.Epochs, gc.TrainStride, gc.Seed = fitEpochs, fitStride, seed
	cls, err := core.TrainGestureClassifier(train, gc)
	if err != nil {
		return nil, fmt.Errorf("context stage: %w", err)
	}
	return core.NewMonitor(cls, lib), nil // threshold 0.5, the safemon default
}

// window is a sliding window of feature rows, oldest first.
type window struct {
	rows [][]float64
	max  int
}

func newWindow(max, dim int) *window {
	w := &window{max: max}
	for i := 0; i < max; i++ {
		w.rows = append(w.rows, make([]float64, dim))
	}
	w.rows = w.rows[:0]
	return w
}

// next advances the window and returns the row to fill.
func (w *window) next() []float64 {
	if len(w.rows) < w.max {
		w.rows = w.rows[:len(w.rows)+1]
		return w.rows[len(w.rows)-1]
	}
	row := w.rows[0]
	copy(w.rows, w.rows[1:])
	w.rows[len(w.rows)-1] = row
	return row
}

// layerTimes accumulates per-frame time over a replay: core.Stream.Push
// itself, and the model layers it calls, each timed in a replay of the
// same frame through the layers' public functions.
type layerTimes struct {
	Frames     int   `json:"frames"`
	FeaturesNS int64 `json:"features_ns"`
	GestureNS  int64 `json:"gesture_lstm_ns"`
	HeadNS     int64 `json:"error_head_ns"`
	PushNS     int64 `json:"stream_push_ns"`
	TimerNS    int64 `json:"timer_read_ns"` // taken off every interval
	// Mismatches counts replay verdicts differing from core.Stream.Push;
	// RefMismatches those differing from the served detector's offline
	// trace (context-aware workloads only).
	Mismatches    int `json:"stream_mismatches"`
	RefMismatches int `json:"reference_mismatches"`
}

func (t *layerTimes) perFrame(ns int64) float64 { return float64(ns) / float64(t.Frames) }

// selfNS is the monitor's own time: core.Stream.Push minus the layers.
func (t *layerTimes) selfNS() int64 { return t.PushNS - t.FeaturesNS - t.GestureNS - t.HeadNS }

// replayLayers pushes every served frame through a core.Stream, timing
// Push, then replays the same frame through the monitor's layers —
// feature extraction and standardization (kinematics), the gesture LSTM
// and the error head (nn) — in Push's order, timing each. The replay must
// give Push's verdict; when refs is non-nil, so must the served
// detector's offline trace.
func replayLayers(mon *core.Monitor, in *inputs, refs []*safemon.Trace, spans *spanLog) *layerTimes {
	gc, lib := mon.Gestures, mon.Errors
	timer := spans.readCost()
	lt := &layerTimes{TimerNS: timer}
	for t, traj := range in.trajs {
		st, err := mon.NewStream(nil)
		if err != nil {
			lt.Mismatches += len(traj.Frames)
			continue
		}
		// Fresh extractors and predictors per trajectory, as each stream
		// allocates its own: where their buffers land moves the LSTM's
		// time by up to a third, so both sides draw a new placement per
		// trajectory.
		gExt, eExt := gc.Config.Features.NewExtractor(), lib.Config.Features.NewExtractor()
		gPred := gc.Net.NewPredictor(gc.Config.Window, gExt.Dim())
		per := map[int]*nn.Predictor{}
		for g, net := range lib.PerGesture {
			if net != nil {
				per[g] = net.NewPredictor(lib.Config.Window, eExt.Dim())
			}
		}
		var global *nn.Predictor
		if lib.Global != nil {
			global = lib.Global.NewPredictor(lib.Config.Window, eExt.Dim())
		}
		gWin, eWin := newWindow(gc.Config.Window, gExt.Dim()), newWindow(lib.Config.Window, eExt.Dim())
		for i := range traj.Frames {
			f := &traj.Frames[i]
			// Push and the replay take turns going first, so neither is
			// always the one that finds the frame's data in cache.
			var want core.FrameVerdict
			var tp, tq int64
			push := func() {
				tp = spans.now()
				want = st.Push(f)
				tq = spans.now()
			}
			if i%2 == 0 {
				push()
			}
			t0 := spans.now()
			row := gExt.ExtractInto(f, gWin.next())
			transform(gc.Standardizer, row)
			t1 := spans.now()
			g := gPred.PredictClass(gWin.rows)
			t2 := spans.now()
			row = eExt.ExtractInto(f, eWin.next())
			transform(lib.Standardizer, row)
			t3 := spans.now()
			score := 0.0
			p := per[g]
			if p == nil {
				p = global
			}
			if p != nil {
				score = p.Predict(eWin.rows)[1]
			}
			t4 := spans.now()
			if i%2 == 1 {
				push()
			}

			// Each interval is charged one timer read; take it off.
			lt.Frames++
			lt.PushNS += tq - tp - timer
			lt.FeaturesNS += (t1 - t0) + (t3 - t2) - 2*timer
			lt.GestureNS += t2 - t1 - timer
			lt.HeadNS += t4 - t3 - timer
			req := fmt.Sprintf("t%d.f%d", t, i)
			spans.add(span{Name: "core.stream.push", Start: tp, End: tq, Parent: -1, Req: req})
			root := spans.add(span{Name: "layers.replay", Start: t0, End: t4, Parent: -1, Req: req})
			spans.add(span{Name: "features", Start: t0, End: t1, Parent: root, Req: req})
			spans.add(span{Name: "gesture_lstm", Start: t1, End: t2, Parent: root, Req: req})
			spans.add(span{Name: "features", Start: t2, End: t3, Parent: root, Req: req})
			spans.add(span{Name: "error_head", Start: t3, End: t4, Parent: root, Req: req})

			v := core.FrameVerdict{FrameIndex: i, Gesture: g, Score: score, Unsafe: score >= mon.Threshold}
			if want != v {
				lt.Mismatches++
			}
			if refs != nil && refs[t].Verdicts[i] != v {
				lt.RefMismatches++
			}
		}
	}
	return lt
}

func transform(s *kinematics.Standardizer, row []float64) {
	if s != nil {
		s.Transform(row)
	}
}

// codecTimes are the wire codec's costs over the workload's frames and
// verdicts, in the workload's codec.
type codecTimes struct {
	Codec            string  `json:"codec"`
	Frames           int     `json:"frames"`
	DecodeNSPerFrame float64 `json:"decode_ns_per_frame"`
	EncodeNSPerVerd  float64 `json:"encode_ns_per_verdict"`
}

// replayCodec times the server side of the workload's codec: decoding
// each frame record a client sends and encoding each verdict record the
// server answers, through serve's public codec functions. Each pass is
// timed as a whole; the median pass is reported.
func replayCodec(mux bool, in *inputs, refs []*safemon.Trace) (*codecTimes, error) {
	var frames []*safemon.Frame
	var verdicts []serve.VerdictMsg
	for t, traj := range in.trajs {
		for i := range traj.Frames {
			frames = append(frames, &traj.Frames[i])
			verdicts = append(verdicts, serve.WireVerdict(refs[t].Verdicts[i]))
		}
	}
	ct := &codecTimes{Codec: "ndjson", Frames: len(frames)}
	var records [][]byte
	for _, f := range frames {
		var b []byte
		var err error
		if mux {
			b, err = serve.AppendBinaryRecord(nil, &serve.BinaryRecord{Type: serve.BinFrame, SID: 1, Frame: *f})
		} else {
			b, err = json.Marshal(serve.ClientMsg{Frame: f[:]})
		}
		if err != nil {
			return nil, err
		}
		records = append(records, b)
	}
	var dec, enc []float64
	for pass := 0; pass < replayPasses; pass++ {
		start := time.Now()
		for _, b := range records {
			var err error
			if mux {
				var rec serve.BinaryRecord
				_, err = serve.DecodeBinaryRecord(b, &rec)
			} else {
				var msg serve.ClientMsg
				err = serve.DecodeRecord(b, &msg)
			}
			if err != nil {
				return nil, fmt.Errorf("decode frame record: %w", err)
			}
		}
		dec = append(dec, float64(time.Since(start).Nanoseconds())/float64(len(records)))

		var buf []byte
		var jbuf bytes.Buffer
		je := json.NewEncoder(&jbuf)
		start = time.Now()
		for i := range verdicts {
			var err error
			if mux {
				buf, err = serve.AppendBinaryRecord(buf[:0], &serve.BinaryRecord{Type: serve.BinVerdict, SID: 1, Verdict: verdicts[i]})
			} else {
				jbuf.Reset()
				err = je.Encode(serve.ServerMsg{Verdict: &verdicts[i]})
			}
			if err != nil {
				return nil, fmt.Errorf("encode verdict record: %w", err)
			}
		}
		enc = append(enc, float64(time.Since(start).Nanoseconds())/float64(len(verdicts)))
	}
	if mux {
		ct.Codec = "binary"
	}
	ct.DecodeNSPerFrame, ct.EncodeNSPerVerd = median(dec), median(enc)
	return ct, nil
}

// replayPasses is how many times each replay runs; the median pass counts.
const replayPasses = 5

// guardTimes is the guard engine's cost and activity over the workload's
// verdict streams.
type guardTimes struct {
	Steps       int     `json:"steps"`
	Transitions int     `json:"transitions"`
	StepNS      float64 `json:"step_ns"`
	PerKFrame   float64 `json:"transitions_per_kframe"`
}

// replayGuard steps a guard.DefaultPolicy engine over each trajectory's
// verdicts, one engine per trajectory as the server keeps one per
// session, timing each pass as a whole.
func replayGuard(refs []*safemon.Trace) (*guardTimes, error) {
	gt := &guardTimes{}
	var per []float64
	for pass := 0; pass < replayPasses; pass++ {
		steps, changes := 0, 0
		var ns int64
		for _, tr := range refs {
			eng, err := guard.NewEngine(guard.DefaultPolicy())
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for _, v := range tr.Verdicts {
				if eng.Step(v).Changed {
					changes++
				}
			}
			ns += time.Since(start).Nanoseconds()
			steps += len(tr.Verdicts)
		}
		gt.Steps, gt.Transitions = steps, changes
		per = append(per, float64(ns)/float64(steps))
	}
	gt.StepNS = median(per)
	gt.PerKFrame = float64(gt.Transitions) * 1000 / float64(gt.Steps)
	return gt, nil
}
