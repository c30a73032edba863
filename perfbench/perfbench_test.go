package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/kinematics"
	"repro/safemon"
	"repro/safemon/serve"
)

// stallDetector answers every frame with its index, except that the first
// push at or after stallAt blocks for stall on its shard goroutine.
type stallDetector struct {
	stallAt time.Time
	stall   time.Duration

	once       sync.Once
	mu         sync.Mutex
	start, end time.Time
}

func (d *stallDetector) Info() safemon.Info                               { return safemon.Info{Name: "stall"} }
func (d *stallDetector) Fit(context.Context, []*safemon.Trajectory) error { return nil }
func (d *stallDetector) Save(io.Writer) error                             { return errors.New("unsupported") }
func (d *stallDetector) Load(io.Reader) error                             { return errors.New("unsupported") }
func (d *stallDetector) Run(context.Context, *safemon.Trajectory) (*safemon.Trace, error) {
	return nil, errors.New("unsupported")
}
func (d *stallDetector) NewSession(...safemon.SessionOption) (safemon.Session, error) {
	return &stallSession{d: d}, nil
}

type stallSession struct {
	d *stallDetector
	i int
}

func (s *stallSession) Push(*safemon.Frame) (safemon.FrameVerdict, error) {
	if time.Now().After(s.d.stallAt) {
		s.d.once.Do(func() {
			start := time.Now()
			time.Sleep(s.d.stall)
			s.d.mu.Lock()
			s.d.start, s.d.end = start, time.Now()
			s.d.mu.Unlock()
		})
	}
	v := safemon.FrameVerdict{FrameIndex: s.i}
	s.i++
	return v, nil
}
func (s *stallSession) Reset([]int) error { s.i = 0; return nil }
func (s *stallSession) Close() error      { return nil }

// testInputs builds n trajectories of length frames with distinct frames,
// and the verdicts stallDetector gives them.
func testInputs(n, frames int) (*inputs, []*safemon.Trace) {
	in := &inputs{}
	var refs []*safemon.Trace
	for t := 0; t < n; t++ {
		traj := &kinematics.Trajectory{HzRate: 30}
		tr := &safemon.Trace{}
		for i := 0; i < frames; i++ {
			var f kinematics.Frame
			f[0], f[1] = float64(t), float64(i)
			traj.Frames = append(traj.Frames, f)
			tr.Verdicts = append(tr.Verdicts, safemon.FrameVerdict{FrameIndex: i})
		}
		in.trajs = append(in.trajs, traj)
		in.labels = append(in.labels, nil)
		in.faultWindows = append(in.faultWindows, [2]int{})
		refs = append(refs, tr)
	}
	return in, refs
}

// TestOpenLoopChargesStall stalls the detector for 200 ms mid-phase. An
// open-loop generator keeps sending on schedule, so every frame of the
// stalled session due during the stall waits for its end and is charged
// that wait; a closed-loop one would have sent (and charged) only one.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	det := &stallDetector{stallAt: time.Now().Add(400 * time.Millisecond), stall: stall}
	srv, err := serve.NewServer(serve.Config{Detectors: map[string]safemon.Detector{"stall": det}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() { defer close(served); hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
		srv.Shutdown()
	}()
	client := &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: httpClient(2)}
	tr, err := dialMux(context.Background(), client, "stall", "")
	if err != nil {
		t.Fatal(err)
	}
	in, refs := testInputs(4, 400)
	run, err := runPhase(context.Background(), tr, in, phaseSpec{sessions: 4, hz: 100, measure: 1200 * time.Millisecond, drain: 5 * time.Second, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps := summarizePhase("stall", run, refs)
	if ps.Mismatches != 0 || ps.Failed != 0 {
		t.Fatalf("%d mismatches, %d failed frames", ps.Mismatches, ps.Failed)
	}
	det.mu.Lock()
	start, end := int64(det.start.Sub(run.base)), int64(det.end.Sub(run.base))
	det.mu.Unlock()
	if end <= start {
		t.Fatal("the detector never stalled")
	}
	charged := 0
	for _, seg := range run.segs {
		for i := 0; i < seg.scheduled; i++ {
			due := seg.due[i]
			if due < start || due >= end-int64(10*time.Millisecond) {
				continue
			}
			if lag := seg.start[i] - due; lag > int64(20*time.Millisecond) {
				t.Errorf("frame due at %v sent %v late: the generator waited on the stall", time.Duration(due), time.Duration(lag))
			}
			if seg.recv[i]-due >= end-due-int64(2*time.Millisecond) {
				charged++
			}
		}
	}
	// The stalled session has ~19 frames due in the window; every one of
	// them must carry the rest of the stall in its latency.
	if charged < 15 {
		t.Errorf("%d frames charged the stall, want >= 15 (the stalled session's frames due during it)", charged)
	}
	if worst := ps.lat[len(ps.lat)-1]; worst < 150 {
		t.Errorf("worst latency %.1f ms does not show a %v stall", worst, stall)
	}
}

func TestTailPctNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPct(c.n); got != c.want {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, shuffled order
	}
	d := summarize(xs)
	if d.N != 1000 || d.Pct != 99 || d.Tail != 990 || d.P50 != 500 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p99=990", d)
	}
	if _, err := d.at(xs, 99.9); err == nil {
		t.Error("p99.9 of 1000 samples has 1 beyond it; want an error")
	}
	if v, err := d.at(xs, 99); err != nil || v != 990 {
		t.Errorf("p99 = %v, %v", v, err)
	}
}

func TestSearchCapacityFindsHighestPassingStep(t *testing.T) {
	for _, c := range []struct{ lo, hi, last int }{
		{-1, 100, 37}, {10, 100, 37}, {-1, 100, -1}, {-1, 100, 99}, {36, 38, 37}, {-1, 40, 0},
	} {
		probes := 0
		got := searchCapacity(c.lo, c.hi, func(i int) bool {
			probes++
			if i <= c.lo || i >= c.hi {
				t.Fatalf("probed step %d outside (%d, %d)", i, c.lo, c.hi)
			}
			return i <= c.last
		})
		want := max(c.last, c.lo)
		if got != want {
			t.Errorf("search(%d, %d) with steps <= %d passing = %d, want %d", c.lo, c.hi, c.last, got, want)
		}
		if limit := int(math.Ceil(math.Log2(float64(c.hi - c.lo)))); probes > limit {
			t.Errorf("%d probes, want <= %d", probes, limit)
		}
	}
}

func TestLaddersStepAtMostTenPercent(t *testing.T) {
	for _, w := range workloads {
		steps, nom := w.ladder()
		if steps[nom].rate() != float64(w.sessions)*w.hz {
			t.Errorf("%s: nominal step %v is not the nominal rate", w.name, steps[nom])
		}
		for i := 1; i < len(steps); i++ {
			if r := steps[i].rate() / steps[i-1].rate(); r <= 1 || r > 1.10 {
				t.Errorf("%s: steps %d→%d are %.3f apart", w.name, i-1, i, r)
			}
		}
	}
}

// TestMatchesBenchmarkJSON keeps the workloads and metric names the
// program reports in step with BENCHMARK.json at the repository root.
func TestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), here %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e, layers []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, m.Name)
	}
	if !slices.Equal(e2e, endToEndNames) {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEndNames)
	}
	if !slices.Equal(layers, perLayerNames) {
		t.Errorf("per_layer %v, program reports %v", layers, perLayerNames)
	}
}

// The faulted workload injects as the Table III campaign does: half the
// trajectories, both faults on the left arm from InjectionStartFrac, the
// rest of each frame untouched.
func TestFaultsFollowTable3Campaign(t *testing.T) {
	clean, err := makeInputs(findWorkload("ndjson-cascade-1khz"), 3)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := makeInputs(findWorkload("mux-guard-ledger-faults"), 3)
	if err != nil {
		t.Fatal(err)
	}
	injected := 0
	for k, traj := range faulted.trajs {
		orig, w := clean.trajs[k], faulted.faultWindows[k]
		if len(traj.Frames) != len(orig.Frames) {
			t.Fatalf("trajectory %d: %d frames, want %d", k, len(traj.Frames), len(orig.Frames))
		}
		if w == [2]int{} {
			continue
		}
		injected++
		if want := int(faultinject.InjectionStartFrac * float64(len(traj.Frames))); w[0] != want || w[1] <= w[0] {
			t.Errorf("trajectory %d: window %v, want it to start at frame %d", k, w, want)
		}
		changed := false
		for i := range traj.Frames {
			f, o := &traj.Frames[i], &orig.Frames[i]
			if (i < w[0] || i >= w[1]) && *f != *o {
				t.Fatalf("trajectory %d: frame %d outside the window %v changed", k, i, w)
			}
			if f.GrasperAngle(kinematics.Right) != o.GrasperAngle(kinematics.Right) {
				t.Fatalf("trajectory %d: right arm changed at frame %d", k, i)
			}
			changed = changed || f.GrasperAngle(kinematics.Left) != o.GrasperAngle(kinematics.Left)
		}
		if !changed {
			t.Errorf("trajectory %d: left grasper never perturbed", k)
		}
	}
	if injected != len(faulted.trajs)/2 {
		t.Errorf("%d of %d trajectories faulted, want half", injected, len(faulted.trajs))
	}
}
