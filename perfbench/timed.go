package main

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"repro/safemon"
	"repro/safemon/ledger"
)

// report is the full record of one run, written as JSON under reportDir.
type report struct {
	Workload       string    `json:"workload"`
	Why            string    `json:"why"`
	Seed           int64     `json:"seed"`
	Seconds        int       `json:"seconds"`
	Traced         bool      `json:"traced"`
	Host           hostFacts `json:"host"`
	LatencyLimitMS float64   `json:"latency_limit_ms"`
	SetupS         []float64 `json:"setup_s_runs"`
	Inputs         struct {
		Trajectories  int     `json:"trajectories"`
		Frames        int     `json:"frames"`
		ArmedShare    float64 `json:"cascade_armed_share"`
		ArmedDisagree int     `json:"cascade_armed_replay_disagreements"`
		FaultShare    float64 `json:"fault_frame_share"`
	} `json:"inputs"`
	Phases   []*phaseSummary `json:"phases"`
	Capacity struct {
		Step         int     `json:"step"`
		Sessions     int     `json:"sessions"`
		HZ           float64 `json:"hz"`
		OfferedFPS   float64 `json:"offered_fps"`
		DeliveredFPS float64 `json:"delivered_fps"`
		Ladder       int     `json:"ladder_steps"`
		Nominal      int     `json:"nominal_step"`
		Truncated    bool    `json:"search_out_of_time,omitempty"`
	} `json:"capacity"`
	ProbeErrors []string          `json:"probe_errors,omitempty"`
	Ledger      *ledger.Snapshot  `json:"ledger,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Notes       map[string]string `json:"notes"`
	Layers      *layerReport      `json:"layers,omitempty"`
	Violations  []string          `json:"violations"`
}

// phaseSummary is one phase's figures. Latency and lag are in ms and
// cover frames due inside the measured window.
type phaseSummary struct {
	Name          string  `json:"name"`
	Sessions      int     `json:"sessions"`
	HZ            float64 `json:"hz"`
	OfferedFPS    float64 `json:"offered_fps"`
	WindowS       float64 `json:"window_s"`
	Attempted     int     `json:"attempted"`
	Failed        int     `json:"failed"`
	FailRatio     float64 `json:"fail_ratio"`
	LatMS         dist    `json:"latency_ms"`
	LagMS         dist    `json:"gen_lag_ms"`
	DeliveredFPS  float64 `json:"delivered_fps"`
	CPUusPerFrame float64 `json:"cpu_us_per_frame"`
	PeakRSSMB     float64 `json:"peak_rss_mb"`
	BacklogFirst  float64 `json:"backlog_first_third"`
	BacklogLast   float64 `json:"backlog_last_third"`
	BacklogGrew   bool    `json:"backlog_grew"`
	Segments      int     `json:"sessions_opened"`
	Refused       int     `json:"sessions_failed"`
	Verdicts      int     `json:"verdicts"`
	Actions       int     `json:"guard_actions"`
	Mismatches    int     `json:"verdict_mismatches"`
	Aborted       bool    `json:"drain_aborted"`
	// Windows are the measured window's one-second slices; the latency
	// and CPU metrics are trimmed means over them (see trimmedMean).
	Windows       []windowStat `json:"windows"`
	WinP50        float64      `json:"windows_p50_ms"`
	WinP99        float64      `json:"windows_p99_ms"`
	WinCPU        float64      `json:"windows_cpu_us_per_frame"`
	Pass          bool         `json:"meets_limit"`
	LedgerDropped uint64       `json:"ledger_dropped,omitempty"`
	AllocPerFrame float64      `json:"go_alloc_bytes_per_frame,omitempty"`
	GCPerKFrame   float64      `json:"go_gc_per_kframe,omitempty"`
	Errors        []string     `json:"errors,omitempty"`

	lat  []float64 // ms, sorted
	lags []float64 // ms, sorted
	run  *phaseRun
	evts int64 // ledger events the phase emitted
}

// summarizePhase computes a phase's figures and checks every received
// verdict against the offline reference of its trajectory.
func summarizePhase(name string, run *phaseRun, refs []*safemon.Trace) *phaseSummary {
	sp := run.spec
	ps := &phaseSummary{Name: name, Sessions: sp.sessions, HZ: sp.hz, OfferedFPS: sp.rate(),
		WindowS: float64(run.endNS-run.warmNS) / 1e9, Aborted: run.aborted, run: run}
	inWindow := 0
	for _, seg := range run.segs {
		if seg.opened {
			ps.Segments++
			ps.evts += 2 + int64(seg.received) + int64(seg.actions)
		}
		if seg.err != nil {
			ps.Refused++
			if len(ps.Errors) < 5 {
				ps.Errors = append(ps.Errors, seg.err.Error())
			}
		}
		ps.Verdicts += seg.received
		ps.Actions += seg.actions
		ref := refs[seg.traj].Verdicts
		for i := 0; i < seg.received && i < seg.n; i++ {
			if seg.verdict[i] != ref[i] {
				ps.Mismatches++
			}
		}
		for i := 0; i < seg.scheduled; i++ {
			d := seg.due[i]
			if d < run.warmNS || d >= run.endNS {
				continue
			}
			ps.Attempted++
			if seg.sent[i] >= 0 {
				ps.lags = append(ps.lags, float64(seg.start[i]-d)/1e6)
			}
			if i < seg.received && seg.recv[i] >= 0 {
				ps.lat = append(ps.lat, float64(seg.recv[i]-d)/1e6)
				inWindow++
			} else {
				ps.Failed++
			}
		}
	}
	ps.LatMS = summarize(ps.lat)
	ps.LagMS = summarize(ps.lags)
	if ps.Attempted > 0 {
		ps.FailRatio = float64(ps.Failed) / float64(ps.Attempted)
	}
	ps.DeliveredFPS = float64(inWindow) / ps.WindowS
	if inWindow > 0 {
		ps.CPUusPerFrame = float64(run.cpuNS) / 1e3 / float64(inWindow)
		if sp.memStats {
			ps.AllocPerFrame = float64(run.mem[1].TotalAlloc-run.mem[0].TotalAlloc) / float64(inWindow)
			ps.GCPerKFrame = float64(run.mem[1].NumGC-run.mem[0].NumGC) * 1000 / float64(inWindow)
		}
	}
	ps.PeakRSSMB = float64(run.peakRSS) / (1 << 20)

	// Backlog growth: compare the median backlog over the last third of
	// the window with the first third. Growth beyond 10 ms worth of
	// offered frames means the server is falling behind.
	var first, last []float64
	third := (run.endNS - run.warmNS) / 3
	for _, b := range run.samples {
		switch {
		case b.at >= run.warmNS && b.at < run.warmNS+third:
			first = append(first, float64(b.backlog))
		case b.at >= run.endNS-third && b.at < run.endNS:
			last = append(last, float64(b.backlog))
		}
	}
	ps.BacklogFirst, ps.BacklogLast = median(first), median(last)
	ps.BacklogGrew = ps.BacklogLast-ps.BacklogFirst > math.Max(1, 0.010*sp.rate())

	ps.windows(run)
	ps.Pass = ps.Failed == 0 && !ps.BacklogGrew && !ps.Aborted && ps.LatMS.N > 0 && ps.WinP99 <= latencyLimitMS
	return ps
}

// windowStat is one slice of a phase's measured window.
type windowStat struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50_ms"`
	P99    float64 `json:"p99_ms"` // the highest supported tail when n < 1000
	CPU    float64 `json:"cpu_us_per_frame"`
	PeakMB float64 `json:"peak_rss_mb"`
}

// windows slices the measured window into equal windows of at least a
// second and 1100 offered frames (so each has a p99 with 10 samples
// beyond it) and takes the medians of their figures.
func (ps *phaseSummary) windows(run *phaseRun) {
	span := run.endNS - run.warmNS
	minW := max(int64(time.Second), int64(1100/run.spec.rate()*1e9))
	k := max(int(span/minW), 1)
	w := span / int64(k)
	lat := make([][]float64, k)
	for _, seg := range run.segs {
		for i := 0; i < seg.scheduled && i < seg.received; i++ {
			d := seg.due[i]
			if d < run.warmNS || d >= run.endNS || seg.recv[i] < 0 {
				continue
			}
			j := min(int((d-run.warmNS)/w), k-1)
			lat[j] = append(lat[j], float64(seg.recv[i]-d)/1e6)
		}
	}
	var p50s, p99s, cpus []float64
	for j := 0; j < k; j++ {
		lo, hi := run.warmNS+int64(j)*w, run.warmNS+int64(j+1)*w
		d := summarize(lat[j])
		ws := windowStat{N: d.N, P50: d.P50, P99: d.Tail}
		if v, err := d.at(lat[j], 99); err == nil {
			ws.P99 = v
		}
		if d.N > 0 {
			ws.CPU = (cpuAt(run.samples, hi) - cpuAt(run.samples, lo)) / 1e3 / float64(d.N)
		}
		for _, b := range run.samples {
			if b.at >= lo && b.at < hi && float64(b.rss)/(1<<20) > ws.PeakMB {
				ws.PeakMB = float64(b.rss) / (1 << 20)
			}
		}
		ps.Windows = append(ps.Windows, ws)
		if d.N > 0 {
			p50s, p99s, cpus = append(p50s, ws.P50), append(p99s, ws.P99), append(cpus, ws.CPU)
		}
	}
	ps.WinP50, ps.WinP99, ps.WinCPU = trimmedMean(p50s), trimmedMean(p99s), trimmedMean(cpus)
}

// trimmedMean drops the lowest and highest fifth of xs and averages the
// rest: a stall of a few windows does not move it, while the host's
// slower speed swings (tens of seconds) are averaged rather than picked
// from, as a median would.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	k := len(c) / 5
	return mean(c[k : len(c)-k])
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuAt interpolates the process CPU time at phase time t from the
// sampler's readings.
func cpuAt(samples []sample, t int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if t <= b.at {
			if b.at == a.at || t <= a.at {
				return float64(a.cpuNS)
			}
			return float64(a.cpuNS) + float64(b.cpuNS-a.cpuNS)*float64(t-a.at)/float64(b.at-a.at)
		}
	}
	return float64(samples[len(samples)-1].cpuNS)
}

// budget splits a run's measuring seconds: a pre-warm phase, the nominal
// phase (its warm-up and measured window) and the capacity search, whose
// probes are each a warm-up plus probeMeasure.
type budget struct {
	prewarm, warm, nominal, capacity time.Duration
}

func newBudget(seconds int) budget {
	s := time.Duration(seconds) * time.Second
	return budget{prewarm: s / 30, warm: s / 60, nominal: s * 55 / 100, capacity: s * 35 / 100}
}

// Capacity probes: a warm-up, then at least probeMeasure and 1100 offered
// frames, so a few percent of overload has time to build a backlog and
// p99 has 10 samples beyond it.
const (
	probeWarm    = 800 * time.Millisecond
	probeMeasure = 1200 * time.Millisecond
)

// phase runs one phase on a fresh transport, summarizes it, and records
// any verdict mismatch as a violation.
func (e *env) phase(ctx context.Context, rep *report, refs []*safemon.Trace, name string, spec phaseSpec) (*phaseSummary, error) {
	if err := e.waitIdle(5 * time.Second); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	tr, err := e.transport(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var dropped uint64
	if e.app != nil {
		dropped = e.app.Stats().Dropped
	}
	run, err := runPhase(ctx, tr, e.in, spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	ps := summarizePhase(name, run, refs)
	if e.app != nil {
		// A recording monitor that loses records is not keeping up.
		ps.LedgerDropped = e.app.Stats().Dropped - dropped
		ps.Pass = ps.Pass && ps.LedgerDropped == 0
	}
	e.expected += ps.evts
	rep.Phases = append(rep.Phases, ps)
	if ps.Mismatches > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("%s: %d served verdicts differ from the offline Runner", name, ps.Mismatches))
	}
	fmt.Printf("  phase %-14s %4d sess × %7.1f Hz = %8.0f fps: p50 %.3f ms, p%g %.3f ms (n=%d), lag p%g %.3f ms, failed %d/%d, backlog %.1f→%.1f, pass=%v\n",
		name, spec.sessions, spec.hz, spec.rate(), ps.LatMS.P50, ps.LatMS.Pct, ps.LatMS.Tail, ps.LatMS.N,
		ps.LagMS.Pct, ps.LagMS.Tail, ps.Failed, ps.Attempted, ps.BacklogFirst, ps.BacklogLast, ps.Pass)
	return ps, nil
}

// prepare computes the offline references and the input properties and
// runs the pre-warm phase.
func (e *env) prepare(ctx context.Context, rep *report, seed int64, b budget) ([]*safemon.Trace, error) {
	refs, err := references(ctx, e.det, e.in)
	if err != nil {
		return nil, fmt.Errorf("offline references: %w", err)
	}
	var cascadeRefs []*safemon.Trace
	if e.w.backend == "cascade" {
		cascadeRefs = refs
	}
	share, disagree, err := armedShare(ctx, e.in, seed, cascadeRefs)
	if err != nil {
		return nil, fmt.Errorf("armed share: %w", err)
	}
	rep.Inputs.Trajectories = len(e.in.trajs)
	rep.Inputs.Frames = e.in.frames()
	rep.Inputs.ArmedShare = share
	rep.Inputs.ArmedDisagree = disagree
	rep.Inputs.FaultShare = e.in.faultShare()
	if disagree > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("envelope replay disagrees with %d disarmed cascade verdicts", disagree))
	}
	fmt.Printf("  inputs: %d trajectories, %d frames, cascade armed share %.4f, fault frame share %.4f\n",
		rep.Inputs.Trajectories, rep.Inputs.Frames, share, rep.Inputs.FaultShare)
	_, err = e.phase(ctx, rep, refs, "prewarm", e.nominalSpec(b.prewarm, 0, seed+1))
	return refs, err
}

func (e *env) nominalSpec(measure, warm time.Duration, seed int64) phaseSpec {
	return phaseSpec{sessions: e.w.sessions, hz: e.w.hz, warm: warm, measure: measure, drain: 5 * time.Second, seed: seed}
}

// endToEndNames are the timed run's bounded metrics, in BENCHMARK.json
// order.
var endToEndNames = []string{"setup_s", "lat_p50_ms", "rss_mb"}

// runTimed is the untraced run: setup, nominal phase, ledger check and
// capacity search; it reports the end-to-end metrics.
func runTimed(ctx context.Context, w *workload, seed int64, seconds int, rep *report) (*result, error) {
	b := newBudget(seconds)
	e, setups, err := setupMedian(ctx, w, seed, wrappers{})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	rep.SetupS = setups
	refs, err := e.prepare(ctx, rep, seed, b)
	if err != nil {
		return nil, err
	}
	// Start the nominal window from a collected heap, so rss_mb measures
	// the serving working set rather than where the last GC cycle fell.
	debug.FreeOSMemory()
	nom, err := e.phase(ctx, rep, refs, "nominal", e.nominalSpec(b.nominal, b.warm, seed+2))
	if err != nil {
		return nil, err
	}
	if e.app != nil {
		snap, err := e.checkLedger(5 * time.Second)
		rep.Ledger = snap
		if err != nil {
			rep.Violations = append(rep.Violations, "nominal phase: "+err.Error())
		}
	}
	capFPS := e.capacity(ctx, rep, refs, nom, seed, b.capacity)

	for i, w := range nom.Windows {
		if w.N-rank(99, max(w.N, 1)) < minBeyond {
			rep.Violations = append(rep.Violations, fmt.Sprintf("nominal window %d: p99 of %d samples has fewer than %d beyond it", i, w.N, minBeyond))
		}
	}
	rep.Metrics = map[string]metric{
		"setup_s":          {median(setups), "s"},
		"lat_p50_ms":       {nom.WinP50, "ms"},
		"lat_p99_ms":       {nom.WinP99, "ms"},
		"capacity_fps":     {capFPS, "1/s"},
		"cpu_us_per_frame": {nom.WinCPU, "us"},
		"rss_mb":           {nom.PeakRSSMB, "MB"},
		"fail_ratio":       {nom.FailRatio, "share"},
	}
	perWin := fmt.Sprintf("trimmed mean over %d windows of ~%d samples (n=%d) at %.0f fps offered", len(nom.Windows), nom.LatMS.N/max(len(nom.Windows), 1), nom.LatMS.N, nom.OfferedFPS)
	rep.Notes = map[string]string{
		"setup_s":          fmt.Sprintf("median of %d setups %v", len(setups), roundAll(setups, 3)),
		"lat_p50_ms":       perWin,
		"lat_p99_ms":       perWin,
		"capacity_fps":     fmt.Sprintf("delivered at ladder step %d (%d sess × %.0f Hz); limit p99 ≤ %.0f ms, no backlog growth, no failures", rep.Capacity.Step, rep.Capacity.Sessions, rep.Capacity.HZ, latencyLimitMS),
		"cpu_us_per_frame": "user+sys ÷ verdicts, " + perWin,
		"rss_mb":           "peak over the nominal phase",
		"fail_ratio":       fmt.Sprintf("%d of %d frames without a verdict; gen.lag_p%g %.3f ms", nom.Failed, nom.Attempted, nom.LagMS.Pct, nom.LagMS.Tail),
	}
	printMetrics(rep.Metrics, rep.Notes)
	for _, v := range rep.Violations {
		fmt.Println("  VIOLATION:", v)
	}
	// The result line carries the bounded end-to-end metrics. lat_p99_ms,
	// capacity_fps and cpu_us_per_frame swing with the shared host's speed
	// by more than a bound could absorb, so the traced run reports them
	// unbounded.
	out := map[string]metric{}
	for _, k := range endToEndNames {
		out[k] = rep.Metrics[k]
	}
	return &result{Correct: len(rep.Violations) == 0, Attempted: nom.Attempted, Failed: nom.Failed, Metrics: out}, nil
}

// capacity searches the ladder for the highest step meeting the limit and
// returns the verdict rate delivered there.
func (e *env) capacity(ctx context.Context, rep *report, refs []*safemon.Trace, nom *phaseSummary, seed int64, budget time.Duration) float64 {
	steps, iNom := e.w.ladder()
	lo, hi := iNom, len(steps)
	if !nom.Pass {
		lo, hi = -1, iNom
	}
	delivered := map[int]float64{iNom: nom.DeliveredFPS}
	deadline := time.Now().Add(budget)
	best := searchCapacity(lo, hi, func(i int) bool {
		if time.Now().After(deadline) {
			// Out of time: count the step as failed, so the search keeps
			// the highest step it has seen pass.
			rep.Capacity.Truncated = true
			return false
		}
		l := steps[i]
		measure := max(probeMeasure, time.Duration(1100/l.rate()*float64(time.Second)))
		spec := phaseSpec{sessions: l.sessions, hz: l.hz, warm: probeWarm, measure: measure, drain: 2 * time.Second, seed: seed + 100 + int64(i)}
		// A step that fails is probed once more: a stall of the shared
		// host must not end the climb, while a real overload fails twice.
		for try := 0; try < 2; try++ {
			ps, err := e.phase(ctx, rep, refs, fmt.Sprintf("probe-%d", i), spec)
			if err != nil {
				// A probe that cannot run (the last overload has not
				// drained) is a failed step, not a wrong verdict.
				rep.ProbeErrors = append(rep.ProbeErrors, err.Error())
				return false
			}
			if ps.Pass {
				delivered[i] = ps.DeliveredFPS
				return true
			}
			spec.seed += 1000
		}
		return false
	})
	rep.Capacity.Ladder, rep.Capacity.Nominal, rep.Capacity.Step = len(steps), iNom, best
	if best < 0 {
		return 0
	}
	rep.Capacity.Sessions, rep.Capacity.HZ = steps[best].sessions, steps[best].hz
	rep.Capacity.OfferedFPS = steps[best].rate()
	rep.Capacity.DeliveredFPS = delivered[best]
	return delivered[best]
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}
