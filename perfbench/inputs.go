package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/gesture"
	"repro/internal/kinematics"
	"repro/internal/synth"
	"repro/safemon"
)

// workload is one traffic mix.
type workload struct {
	name, why string
	backend   string
	mux       bool    // binary /v1/mux; false is NDJSON /v1/stream
	sessions  int     // concurrent sessions at the nominal rate
	hz        float64 // per-session frame rate at the nominal rate
	guarded   bool    // sessions run guard.DefaultPolicy
	ledger    bool    // the server records every frame into a disk ledger
	faulted   bool    // half the trajectories carry injected faults
	// ladder is the capacity ladder: offered rates from nominal/4 to
	// nominal×8 (mux-ca) or ×32, past saturation, steps ladderRatio
	// apart. Mux workloads climb it by
	// adding hz sessions, the NDJSON workload by raising the per-stream
	// rate.
	ladderLo, ladderHi int
}

const ladderRatio = 1.05 // capacity ladder steps are 5% apart

var workloads = []*workload{
	{
		name:    "mux-ca-30hz",
		why:     "context-aware over one binary mux connection, 64 sessions at 30 Hz: every frame runs the gesture LSTM and an error head, so the model layers dominate",
		backend: "context-aware", mux: true, sessions: 64, hz: 30,
		ladderLo: -28, ladderHi: 43,
	},
	{
		name:    "ndjson-cascade-1khz",
		why:     "cascade over NDJSON, 2 streams at 1 kHz, fault-free: the cascade stays mostly disarmed, so HTTP, the NDJSON codec and the shard hop dominate",
		backend: "cascade", sessions: 2, hz: 1000,
		ladderLo: -28, ladderHi: 71,
	},
	{
		name:    "mux-guard-ledger-faults",
		why:     "cascade with the default guard policy and a disk ledger of every frame, 64 mux sessions at 30 Hz, half the trajectories faulted: the write path beside the read path",
		backend: "cascade", mux: true, sessions: 64, hz: 30, guarded: true, ledger: true, faulted: true,
		ladderLo: -28, ladderHi: 71,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ladder returns the capacity ladder as (sessions, per-session hz) steps
// and the index of the nominal step.
func (w *workload) ladder() (steps []phaseLoad, nominal int) {
	for i, r := range geometricLadder(1, ladderRatio, w.ladderLo, w.ladderHi) {
		if w.ladderLo+i == 0 {
			nominal = len(steps)
		}
		l := phaseLoad{sessions: w.sessions, hz: w.hz}
		if w.mux {
			l.sessions = int(math.Round(float64(w.sessions) * r))
		} else {
			l.hz = w.hz * r
		}
		if len(steps) > 0 && steps[len(steps)-1] == l {
			continue
		}
		steps = append(steps, l)
	}
	return steps, nominal
}

// phaseLoad is one offered load: sessions × hz frames per second.
type phaseLoad struct {
	sessions int
	hz       float64
}

func (l phaseLoad) rate() float64 { return float64(l.sessions) * l.hz }

// inputs is everything a workload serves, generated from the seed.
type inputs struct {
	train  []*safemon.Trajectory
	trajs  []*safemon.Trajectory // served trajectories, in rotation order
	labels [][]int               // per served trajectory: its gesture labels
	// faultWindows[i] is the injected [start, end) frame window of
	// trajs[i], or {0, 0}.
	faultWindows [][2]int
}

// Synthetic data scale: 12 demonstrations, about 320–650 frames each at
// 30 Hz; the first LOSO fold's training trajectories fit the detector,
// each cut to the same share of its length so that they hold trainFrames
// frames together. Fit's cost follows the frame count, which otherwise
// ranges 4.5k–10.5k over seeds 1–3000; the cut makes setup_s a measure
// of the code, not of the seed.
const (
	numDemos      = 12
	durationScale = 0.35
	trainFrames   = 4400
	fitEpochs     = 2
	fitStride     = 6
)

// makeInputs generates a workload's inputs from seed: the synthetic
// demonstrations, the rotation order of the served trajectories and, on
// faulted workloads, which trajectories carry which fault.
func makeInputs(w *workload, seed int64) (*inputs, error) {
	demos, err := synth.Generate(synth.Config{
		Task: gesture.Suturing, Hz: 30, Seed: seed,
		NumDemos: numDemos, NumTrials: 4, Subjects: 4, DurationScale: durationScale,
	})
	if err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	all := synth.Trajectories(demos)
	in := &inputs{train: cropTrain(dataset.LOSO(all)[0].Train, trainFrames)}
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	grid := faultinject.Table3Grid()
	for k, i := range rng.Perm(len(all)) {
		traj := all[i]
		window := [2]int{}
		if w.faulted && k%2 == 0 {
			if traj, window, err = injectCampaignFault(rng, grid, traj); err != nil {
				return nil, err
			}
		}
		in.trajs = append(in.trajs, traj)
		in.faultWindows = append(in.faultWindows, window)
		var labels []int
		if len(traj.Gestures) == len(traj.Frames) {
			labels = traj.Gestures
		}
		in.labels = append(in.labels, labels)
	}
	return in, nil
}

// cropTrain cuts every trajectory to the same share of its length so that
// together they hold at most budget frames.
func cropTrain(trajs []*safemon.Trajectory, budget int) []*safemon.Trajectory {
	total := 0
	for _, t := range trajs {
		total += len(t.Frames)
	}
	if total <= budget {
		return trajs
	}
	out := make([]*safemon.Trajectory, len(trajs))
	for k, t := range trajs {
		n := len(t.Frames) * budget / total
		c := *t
		c.Frames = t.Frames[:n]
		if len(t.Gestures) > 0 {
			c.Gestures = t.Gestures[:n]
		}
		if len(t.Unsafe) > 0 {
			c.Unsafe = t.Unsafe[:n]
		}
		out[k] = &c
	}
	return out
}

// injectCampaignFault perturbs traj as one injection of the repository's
// Table III campaign (faultinject.RunCampaign): a grid bucket drawn with
// probability proportional to its Count, then a grasper-angle ramp and a
// Cartesian deviation of the carrying left arm, both starting at
// faultinject.InjectionStartFrac, with targets and durations uniform in
// the bucket's ranges. It returns the perturbed trajectory and the frame
// window either fault covers.
func injectCampaignFault(rng *rand.Rand, grid []faultinject.Bucket, traj *safemon.Trajectory) (*safemon.Trajectory, [2]int, error) {
	total := 0
	for _, b := range grid {
		total += b.Count
	}
	pick := rng.Intn(total)
	b := grid[0]
	for _, c := range grid {
		if pick < c.Count {
			b = c
			break
		}
		pick -= c.Count
	}
	faults := []faultinject.Fault{
		{Variable: faultinject.GrasperAngle, Target: uniform(rng, b.GrasperLo, b.GrasperHi),
			StartFrac: faultinject.InjectionStartFrac, Duration: uniform(rng, b.GrasperDurLo, b.GrasperDurHi),
			Manipulator: kinematics.Left},
		{Variable: faultinject.CartesianPosition, Target: uniform(rng, b.CartLo, b.CartHi),
			StartFrac: faultinject.InjectionStartFrac, Duration: uniform(rng, b.CartDurLo, b.CartDurHi),
			Manipulator: kinematics.Left},
	}
	window := [2]int{len(traj.Frames), 0}
	for _, f := range faults {
		inj, start, end, err := faultinject.Inject(traj, f)
		if err != nil {
			return nil, window, fmt.Errorf("inject fault: %w", err)
		}
		traj = inj
		window[0], window[1] = min(window[0], start), max(window[1], end)
	}
	return traj, window, nil
}

func uniform(rng *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

// frames is the number of frames across the served trajectories.
func (in *inputs) frames() int {
	n := 0
	for _, t := range in.trajs {
		n += len(t.Frames)
	}
	return n
}

// faultShare is the share of served frames inside injected fault windows.
func (in *inputs) faultShare() float64 {
	inside := 0
	for _, w := range in.faultWindows {
		inside += w[1] - w[0]
	}
	return float64(inside) / float64(in.frames())
}

func fitOptions(seed int64) []safemon.Option {
	return []safemon.Option{safemon.WithSeed(seed), safemon.WithEpochs(fitEpochs), safemon.WithTrainStride(fitStride)}
}

// fitDetector fits the named backend on the training trajectories.
func fitDetector(ctx context.Context, backend string, train []*safemon.Trajectory, seed int64) (safemon.Detector, error) {
	det, err := safemon.Open(backend, fitOptions(seed)...)
	if err != nil {
		return nil, err
	}
	if err := det.Fit(ctx, train); err != nil {
		return nil, fmt.Errorf("fit %s: %w", backend, err)
	}
	return det, nil
}

// The cascade's default gating (safemon's defaultCascadeArm and
// defaultCascadeHoldoff): a front score at or above cascadeArm arms the
// inner detector for cascadeHoldoff frames.
const (
	cascadeArm     = 0.02
	cascadeHoldoff = 30
)

// armedShare replays the served trajectories through the envelope
// backend's public Session with the cascade's default gating and returns
// the share of frames on which the cascade's inner detector runs. When
// refs holds cascade traces, every frame the replay finds disarmed must
// carry the front's score, unflagged; disagreements are returned.
func armedShare(ctx context.Context, in *inputs, seed int64, refs []*safemon.Trace) (share float64, disagree int, err error) {
	front, err := fitDetector(ctx, "envelope", in.train, seed)
	if err != nil {
		return 0, 0, err
	}
	armedFrames := 0
	for t, traj := range in.trajs {
		var opts []safemon.SessionOption
		if in.labels[t] != nil {
			opts = append(opts, safemon.WithSessionLabels(in.labels[t]))
		}
		sess, err := front.NewSession(opts...)
		if err != nil {
			return 0, 0, err
		}
		armed := 0
		for i := range traj.Frames {
			fv, err := sess.Push(&traj.Frames[i])
			if err != nil {
				sess.Close()
				return 0, 0, err
			}
			if fv.Score >= cascadeArm {
				armed = cascadeHoldoff
			}
			if armed > 0 {
				armed--
				armedFrames++
				continue
			}
			if refs != nil {
				fv.Unsafe = false
				if refs[t].Verdicts[i] != fv {
					disagree++
				}
			}
		}
		sess.Close()
	}
	return float64(armedFrames) / float64(in.frames()), disagree, nil
}

// references computes the offline Runner trace of every served trajectory.
func references(ctx context.Context, det safemon.Detector, in *inputs) ([]*safemon.Trace, error) {
	return (&safemon.Runner{Detector: det, Workers: 2}).Traces(ctx, in.trajs)
}
