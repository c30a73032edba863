package main

// The open-loop load generator. Each session sends frame i of its
// schedule when it falls due (phase + i/hz) whether or not earlier
// verdicts have arrived, and every frame is timed from that due time, so
// a stall is charged to every frame queued behind it. When a session's
// trajectory ends it closes and a new session opens on the next
// trajectory; the open's wait is charged to the first frame it delays.

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/safemon"
	"repro/safemon/serve"
)

// stream is one logical monitor session as the generator drives it: sends
// from the generator goroutine, receives from the session's worker.
type stream interface {
	send(f *safemon.Frame) error
	recv() (safemon.FrameVerdict, error) // io.EOF on the done record
	closeSend() error
	actions() int
	close()
}

// transport opens streams for one phase and owns the connections they
// ride on. close tears every connection down, unblocking pending opens
// and receives.
type transport interface {
	open(ctx context.Context, labels []int) (stream, error)
	close()
}

// muxTransport carries every session of a phase on one binary /v1/mux
// connection.
type muxTransport struct {
	conn            *serve.MuxConn
	backend, policy string
}

func dialMux(ctx context.Context, c *serve.Client, backend, policy string) (*muxTransport, error) {
	conn, err := c.OpenMux(ctx)
	if err != nil {
		return nil, fmt.Errorf("dial mux: %w", err)
	}
	return &muxTransport{conn: conn, backend: backend, policy: policy}, nil
}

func (t *muxTransport) open(ctx context.Context, labels []int) (stream, error) {
	st, err := t.conn.Open(ctx, t.backend, t.policy, labels)
	if err != nil {
		return nil, err
	}
	return muxStream{st}, nil
}

func (t *muxTransport) close() { t.conn.Close() }

type muxStream struct{ st *serve.MuxStream }

func (s muxStream) send(f *safemon.Frame) error         { return s.st.Send(f) }
func (s muxStream) recv() (safemon.FrameVerdict, error) { return s.st.Recv() }
func (s muxStream) closeSend() error                    { return s.st.CloseSend() }
func (s muxStream) actions() int                        { return len(s.st.Actions()) }
func (s muxStream) close()                              {}

// ndjsonTransport opens one NDJSON /v1/stream request per session. The
// server answers stream requests with Connection: close, so every
// session is its own TCP connection; the HTTP client caps how many are
// open at once.
type ndjsonTransport struct {
	client          *serve.Client
	backend, policy string

	mu   sync.Mutex
	live map[*serve.Stream]struct{}
}

func newNDJSONTransport(c *serve.Client, backend, policy string) *ndjsonTransport {
	return &ndjsonTransport{client: c, backend: backend, policy: policy, live: map[*serve.Stream]struct{}{}}
}

func (t *ndjsonTransport) open(ctx context.Context, labels []int) (stream, error) {
	st, err := t.client.OpenGuarded(ctx, t.backend, t.policy, labels)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.live[st] = struct{}{}
	t.mu.Unlock()
	return &ndjsonStream{st: st, t: t}, nil
}

func (t *ndjsonTransport) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for st := range t.live {
		st.Close()
		delete(t.live, st)
	}
}

type ndjsonStream struct {
	st *serve.Stream
	t  *ndjsonTransport
}

func (s *ndjsonStream) send(f *safemon.Frame) error         { return s.st.Send(f) }
func (s *ndjsonStream) recv() (safemon.FrameVerdict, error) { return s.st.Recv() }
func (s *ndjsonStream) closeSend() error                    { return s.st.CloseSend() }
func (s *ndjsonStream) actions() int                        { return len(s.st.Actions()) }
func (s *ndjsonStream) close() {
	s.t.mu.Lock()
	delete(s.t.live, s.st)
	s.t.mu.Unlock()
	s.st.Close()
}

// httpClient is the load generator's HTTP client: at most conns TCP
// connections to the server at any time.
func httpClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// phaseSpec is one open-loop phase: sessions × hz offered frames per
// second for warm+measure seconds. Frames due during warm are sent and
// verified but left out of the statistics.
type phaseSpec struct {
	sessions int
	hz       float64
	warm     time.Duration
	measure  time.Duration
	// drain bounds the wait for outstanding verdicts after the last send
	// before the connections are torn down.
	drain time.Duration
	// seed draws the session phases, the truncation of each session's
	// first trajectory and the start of its trajectory rotation.
	seed int64
	// memStats reads runtime.MemStats at the window edges (a short
	// stop-the-world, so only where the Go-runtime metrics are wanted).
	memStats bool
}

func (p phaseSpec) rate() float64 { return float64(p.sessions) * p.hz }

// Segment states as the generator sees them.
const (
	stOpening = iota // open requested, not yet answered
	stReady          // open answered; frames are sent
	stDead           // refused at open or ended by an error record
)

// segment is one session on one trajectory. The generator writes due,
// start and sent; the session's worker writes recv and verdict. Both
// sides write disjoint fields and nothing reads them until the phase has
// joined every goroutine.
type segment struct {
	sess, idx int // session id and its segment number
	traj      int
	n         int // frames to send (the first segment of a session is a prefix)
	due       []int64
	start     []int64 // send call entry (ns since t0)
	sent      []int64 // send call return; -1 when the frame was never sent
	recv      []int64 // verdict arrival; -1 when none arrived
	verdict   []safemon.FrameVerdict
	scheduled int // frames whose due time passed (sent or counted failed)
	received  int
	actions   int
	opened    bool
	err       error
}

// genSession is one simulated client session. mu guards the fields the
// generator and the worker share.
type genSession struct {
	id int

	mu       sync.Mutex
	state    int
	st       stream
	cur      *segment // segment being sent, nil between trajectories
	closed   bool     // cur's request side is closed
	stopping bool

	// req hands the worker the next segment to open. The generator can
	// only request a new segment once the previous one was answered, so
	// one slot suffices.
	req chan *segment

	// Generator-owned.
	rng   *rand.Rand
	phase int64 // schedule offset (ns): frame k of the session is due at phase + k/hz
	count int   // frames scheduled so far
	rot   int   // next trajectory in the rotation
	nseg  int
	first int // length of the truncated first trajectory
	next  int64
	segs  []*segment
}

// gen runs one phase.
type gen struct {
	tr     transport
	in     *inputs
	ctx    context.Context
	base   time.Time
	period float64 // ns per frame per session
	endNS  int64

	sentTotal atomic.Int64
	recvTotal atomic.Int64
	wg        sync.WaitGroup
	sess      []*genSession
}

func (g *gen) now() int64 { return int64(time.Since(g.base)) }

// phaseRun is everything one phase recorded, for the summary, the
// correctness check and the trace joins.
type phaseRun struct {
	spec    phaseSpec
	base    time.Time
	warmNS  int64
	endNS   int64
	segs    []*segment
	samples []sample
	peakRSS int64
	cpuNS   int64 // process CPU between the window edges
	mem     [2]runtime.MemStats
	aborted bool
	elapsed time.Duration
}

// sample is one reading of the phase's sampler.
type sample struct {
	at      int64
	backlog int64
	cpuNS   int64 // process CPU so far
	rss     int64
}

// runPhase drives one open-loop phase over tr and returns its record. It
// returns only after every goroutine it started has ended; tr is closed.
func runPhase(ctx context.Context, tr transport, in *inputs, spec phaseSpec) (*phaseRun, error) {
	if spec.sessions <= 0 || spec.hz <= 0 {
		return nil, errors.New("phase needs sessions and a rate")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	g := &gen{tr: tr, in: in, ctx: ctx, period: 1e9 / spec.hz}
	rng := rand.New(rand.NewSource(spec.seed))
	warmNS := int64(spec.warm)
	g.endNS = warmNS + int64(spec.measure)
	rotBase := rng.Intn(len(in.trajs))
	for i := 0; i < spec.sessions; i++ {
		s := &genSession{id: i, req: make(chan *segment, 1), rng: rand.New(rand.NewSource(rng.Int63()))}
		// Sessions arrive spread over the first half of the warm-up (at
		// least one frame period), not as one burst of opens. Within the
		// frame period their offsets are stratified: session i sits at a
		// seeded point of the i-th of spec.sessions equal slots, so every
		// seed offers the same evenly spread load, not clusters of its own.
		periods := max(int64(g.period), warmNS/2) / int64(g.period)
		slot := (float64(i) + s.rng.Float64()) / float64(spec.sessions)
		s.phase = s.rng.Int63n(periods)*int64(g.period) + int64(slot*g.period)
		s.rot = (rotBase + i) % len(in.trajs)
		n := len(in.trajs[s.rot].Frames)
		// Truncating each session's first trajectory at a random length
		// spreads trajectory ends, and with them the session churn,
		// across the phase instead of synchronizing it.
		s.first = minFrames + s.rng.Intn(n-minFrames+1)
		s.next = s.phase
		g.sess = append(g.sess, s)
	}

	run := &phaseRun{spec: spec, warmNS: warmNS, endNS: g.endNS}
	g.base = time.Now()
	run.base = g.base
	for _, s := range g.sess {
		g.wg.Add(1)
		go g.worker(s)
	}
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go g.sample(run, stopSampler, samplerDone)

	h := sessHeap(append([]*genSession(nil), g.sess...))
	heap.Init(&h)
	var cpu0 int64
	warmed := false
	for {
		s := h[0]
		now := g.now()
		if !warmed && now >= warmNS {
			warmed = true
			cpu0 = processCPU()
			if spec.memStats {
				runtime.ReadMemStats(&run.mem[0])
			}
		}
		if s.next >= g.endNS {
			break
		}
		if s.next > now {
			sleepNS(s.next - now)
			continue
		}
		g.step(s, now)
		heap.Fix(&h, 0)
	}
	// Stop the clock: remaining due frames fall after the window.
	for g.now() < g.endNS {
		sleepNS(g.endNS - g.now())
	}
	if !warmed {
		cpu0 = processCPU()
	}
	run.cpuNS = processCPU() - cpu0
	if spec.memStats {
		runtime.ReadMemStats(&run.mem[1])
	}
	close(stopSampler)
	<-samplerDone

	for _, s := range g.sess {
		s.mu.Lock()
		s.stopping = true
		if s.cur != nil && s.state == stReady && !s.closed {
			s.st.closeSend()
			s.closed = true
		}
		if s.cur != nil && s.state == stOpening {
			g.expirePending(s)
		}
		s.mu.Unlock()
		close(s.req)
	}
	done := make(chan struct{})
	go func() { g.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(spec.drain):
		run.aborted = true
		cancel()
		tr.close()
		<-done
	}
	tr.close()
	run.elapsed = time.Since(g.base)
	for _, s := range g.sess {
		run.segs = append(run.segs, s.segs...)
	}
	return run, nil
}

// minFrames is the shortest first-trajectory prefix a session sends: one
// error-head window, so every session reaches steady-state inference.
const minFrames = 12

// pendingLimitNS is how long frames may wait on an unanswered open at the
// end of a phase before they count as failed: the 33 ms latency limit.
const pendingLimitNS = int64(latencyLimitMS * 1e6)

// expirePending charges a session's frames that were due while its open
// was still unanswered at the end of the phase, once they have waited
// past the latency limit.
func (g *gen) expirePending(s *genSession) {
	seg := s.cur
	for {
		due := s.phase + int64(float64(s.count)*g.period)
		if due >= g.endNS || due+pendingLimitNS > g.endNS || seg.scheduled >= seg.n {
			return
		}
		i := seg.scheduled
		seg.due[i] = due
		seg.scheduled++
		s.count++
	}
}

// step schedules every frame of s due by now.
func (g *gen) step(s *genSession, now int64) {
	for {
		due := s.phase + int64(float64(s.count)*g.period)
		if due > now || due >= g.endNS {
			s.next = due
			return
		}
		s.mu.Lock()
		if s.cur == nil {
			seg := g.newSegment(s)
			s.cur, s.state, s.closed = seg, stOpening, false
			s.segs = append(s.segs, seg)
			s.req <- seg
		}
		seg := s.cur
		switch s.state {
		case stOpening:
			s.mu.Unlock()
			s.next = now + pollNS
			return
		case stDead:
			// Refused or failed session: its frames stay on the schedule
			// and count as attempted without a verdict.
			seg.due[seg.scheduled] = due
			seg.scheduled++
			s.count++
			if seg.scheduled == seg.n {
				s.cur = nil
			}
			s.mu.Unlock()
			continue
		}
		st := s.st
		s.mu.Unlock()
		i := seg.scheduled
		seg.due[i] = due
		seg.start[i] = g.now()
		if err := st.send(&g.in.trajs[seg.traj].Frames[i]); err == nil {
			seg.sent[i] = g.now()
			g.sentTotal.Add(1)
		}
		seg.scheduled++
		s.count++
		if seg.scheduled == seg.n {
			s.mu.Lock()
			if !s.closed {
				st.closeSend()
				s.closed = true
			}
			s.cur = nil
			s.mu.Unlock()
		}
	}
}

// pollNS is how often the generator rechecks a session whose open is
// still unanswered.
const pollNS = int64(100 * time.Microsecond)

func (g *gen) newSegment(s *genSession) *segment {
	traj := s.rot
	s.rot = (s.rot + 1) % len(g.in.trajs)
	n := len(g.in.trajs[traj].Frames)
	if s.nseg == 0 {
		n = s.first
	}
	seg := &segment{sess: s.id, idx: s.nseg, traj: traj, n: n,
		due: make([]int64, n), start: make([]int64, n), sent: make([]int64, n),
		recv: make([]int64, n), verdict: make([]safemon.FrameVerdict, n)}
	for i := range seg.sent {
		seg.sent[i], seg.recv[i] = -1, -1
	}
	s.nseg++
	return seg
}

// worker opens each requested segment and receives its verdicts.
func (g *gen) worker(s *genSession) {
	defer g.wg.Done()
	for seg := range s.req {
		st, err := g.tr.open(g.ctx, g.in.labels[seg.traj])
		s.mu.Lock()
		if err != nil {
			seg.err = err
			if s.cur == seg {
				s.state = stDead
			}
			s.mu.Unlock()
			continue
		}
		seg.opened = true
		if s.cur == seg {
			s.state, s.st = stReady, st
		}
		if s.stopping && !s.closed {
			// The phase ended while the open was in flight.
			st.closeSend()
			s.closed = true
		}
		s.mu.Unlock()
		for {
			v, err := st.recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				s.mu.Lock()
				seg.err = err
				if s.cur == seg {
					s.state = stDead
				}
				s.mu.Unlock()
				break
			}
			if i := seg.received; i < seg.n {
				seg.recv[i] = g.now()
				seg.verdict[i] = v
			}
			seg.received++
			g.recvTotal.Add(1)
		}
		seg.actions = st.actions()
		st.close()
	}
}

// sample records the backlog (frames sent − verdicts received), the
// process CPU time and the resident set every 50 ms until stop closes.
func (g *gen) sample(run *phaseRun, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			now := g.now()
			rss := residentBytes()
			run.samples = append(run.samples, sample{at: now, backlog: g.sentTotal.Load() - g.recvTotal.Load(), cpuNS: processCPU(), rss: rss})
			if now >= run.warmNS && rss > run.peakRSS {
				run.peakRSS = rss
			}
		}
	}
}

// sleepNS sleeps for d nanoseconds (the runtime timer's granularity makes
// very short sleeps overshoot; the overshoot shows up as generator lag).
func sleepNS(d int64) { time.Sleep(time.Duration(d)) }

// sessHeap orders sessions by their next check time.
type sessHeap []*genSession

func (h sessHeap) Len() int           { return len(h) }
func (h sessHeap) Less(i, j int) bool { return h[i].next < h[j].next }
func (h sessHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sessHeap) Push(x any)        { *h = append(*h, x.(*genSession)) }
func (h *sessHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
