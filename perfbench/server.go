package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/ledger"
	"repro/safemon/serve"
)

// env is one live server under test and its inputs.
type env struct {
	w        *workload
	in       *inputs
	det      safemon.Detector
	srv      *serve.Server
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve returns
	client   *serve.Client
	app      *ledger.Appender
	dir      string // ledger directory, removed at close
	policy   string
	expected int64 // ledger events the client has seen emitted
}

// Disk ledger layout: small segments so rotation runs within a phase, a
// retention budget that compaction enforces during the capacity search.
var diskConfig = ledger.DiskConfig{SegmentBytes: 4 << 20, MaxBytes: 64 << 20}

// wrapDetector and wrapStore let the traced run instrument the layers a
// server is built from; nil leaves them bare.
type wrappers struct {
	detector func(safemon.Detector) safemon.Detector
	store    func(*ledger.DiskStore) ledger.Store
}

// setup builds a ready server from the seed — inputs, Fit, NewServer,
// listener — and returns once the first verdict has come back over the
// workload's transport, with the time that took measured from start.
func setup(ctx context.Context, w *workload, seed int64, start time.Time, wr wrappers) (*env, time.Duration, error) {
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, 0, err
	}
	det, err := fitDetector(ctx, w.backend, in.train, seed)
	if err != nil {
		return nil, 0, err
	}
	e := &env{w: w, in: in, det: det}
	served := det
	if wr.detector != nil {
		served = wr.detector(det)
	}
	cfg := serve.Config{
		Detectors: map[string]safemon.Detector{w.backend: served},
		Manager:   serve.ManagerConfig{MaxSessions: 4096},
	}
	if w.guarded {
		p := guard.DefaultPolicy()
		cfg.Policies = []guard.Policy{p}
		e.policy = p.Name
	}
	if w.ledger {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, 0, err
		}
		if e.dir, err = os.MkdirTemp(".bench_build", "ledger-"); err != nil {
			return nil, 0, err
		}
		store, err := ledger.OpenDisk(e.dir, diskConfig)
		if err != nil {
			os.RemoveAll(e.dir)
			return nil, 0, err
		}
		var st ledger.Store = store
		if wr.store != nil {
			st = wr.store(store)
		}
		e.app = ledger.NewAppender(st, ledger.Options{})
		cfg.Ledger = e.app
	}
	if e.srv, err = serve.NewServer(cfg); err != nil {
		e.close()
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, 0, err
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.hs.Serve(ln)
	}()
	e.client = &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: httpClient(runtime.NumCPU())}
	if err := e.firstVerdict(ctx); err != nil {
		e.close()
		return nil, 0, fmt.Errorf("first verdict: %w", err)
	}
	return e, time.Since(start), nil
}

// firstVerdict streams the first frame of the first trajectory through a
// fresh session and waits for its verdict and done record.
func (e *env) firstVerdict(ctx context.Context) error {
	tr, err := e.transport(ctx)
	if err != nil {
		return err
	}
	defer tr.close()
	st, err := tr.open(ctx, e.in.labels[0])
	if err != nil {
		return err
	}
	defer st.close()
	if err := st.send(&e.in.trajs[0].Frames[0]); err != nil {
		return err
	}
	if _, err := st.recv(); err != nil {
		return err
	}
	if err := st.closeSend(); err != nil {
		return err
	}
	if _, err := st.recv(); err != io.EOF {
		return fmt.Errorf("want done record, got %v", err)
	}
	e.expected += 3 + int64(st.actions()) // start, verdict, end
	return nil
}

// transport opens a fresh connection set of the workload's kind.
func (e *env) transport(ctx context.Context) (transport, error) {
	if e.w.mux {
		return dialMux(ctx, e.client, e.w.backend, e.policy)
	}
	return newNDJSONTransport(e.client, e.w.backend, e.policy), nil
}

// waitIdle waits until the server reports no attached session, so one
// phase's backlog does not spill into the next.
func (e *env) waitIdle(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for e.srv.Stats().SessionsActive > 0 {
		if time.Now().After(deadline) {
			return errors.New("server still has attached sessions")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// checkLedger flushes the appender and waits until every event the
// client has seen emitted is appended: session start and end, one per
// verdict and one per guard action. Drops or store errors fail it.
func (e *env) checkLedger(limit time.Duration) (*ledger.Snapshot, error) {
	deadline := time.Now().Add(limit)
	for {
		e.app.Flush()
		st := e.app.Stats()
		if st.Dropped > 0 || st.Errors > 0 {
			return &st, fmt.Errorf("ledger lost events: %d dropped, %d store errors", st.Dropped, st.Errors)
		}
		if int64(st.Appended) == e.expected {
			return &st, nil
		}
		if int64(st.Appended) > e.expected || time.Now().After(deadline) {
			return &st, fmt.Errorf("ledger appended %d events, client saw %d emitted", st.Appended, e.expected)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the server and releases everything setup made.
func (e *env) close() {
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		e.hs.Shutdown(ctx)
		cancel()
		e.hs.Close()
		<-e.served
	}
	if e.srv != nil {
		e.srv.Shutdown()
	}
	if e.app != nil {
		e.app.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
	if e.client != nil {
		e.client.HTTPClient.CloseIdleConnections()
	}
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

// setupMedian sets up setupRepeats times, keeps the last environment and
// returns every setup time. The first is measured from process start.
func setupMedian(ctx context.Context, w *workload, seed int64, wr wrappers) (*env, []float64, error) {
	var times []float64
	var e *env
	for r := 0; r < setupRepeats; r++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		if r == 0 {
			start = procStart
		}
		next, d, err := setup(ctx, w, seed, start, wr)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		e = next
	}
	// Return the earlier setups' garbage so the resident-set figures
	// describe the live server.
	debug.FreeOSMemory()
	return e, times, nil
}
