package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gesture"
	"repro/safemon"
	"repro/safemon/guard"
	"repro/safemon/ledger"
)

// panicMarker is a first-feature value no real kinematics frame carries.
const panicMarker = -123456.0

// panicDetector wraps a fitted detector: its sessions panic on any frame
// whose first feature is panicMarker and delegate every other push, so
// verdicts of clean streams match the wrapped detector's offline replay.
type panicDetector struct {
	safemon.Detector
	closed atomic.Int64 // sessions closed rather than pooled
}

func (d *panicDetector) NewSession(opts ...safemon.SessionOption) (safemon.Session, error) {
	s, err := d.Detector.NewSession(opts...)
	if err != nil {
		return nil, err
	}
	return &panicSession{Session: s, d: d}, nil
}

type panicSession struct {
	safemon.Session
	d *panicDetector
}

func (s *panicSession) Push(f *safemon.Frame) (safemon.FrameVerdict, error) {
	if f[0] == panicMarker {
		panic("detector fault")
	}
	return s.Session.Push(f)
}

func (s *panicSession) Close() error {
	s.d.closed.Add(1)
	return s.Session.Close()
}

// poisonedCopy returns a copy of traj whose frame at index at carries
// panicMarker as its first feature.
func poisonedCopy(traj *safemon.Trajectory, at int) *safemon.Trajectory {
	cp := *traj
	cp.Frames = append([]safemon.Frame(nil), traj.Frames...)
	cp.Frames[at][0] = panicMarker
	return &cp
}

// TestSessionPanicFailsOneStream pins fail-closed panic handling: a
// detector session that panics fails only its own stream with a 500
// record, on NDJSON and on one sid of a mux connection, while every other
// stream on the same shard keeps receiving its offline-replay verdicts.
// The panicked sessions are closed (never pooled), counted in /stats and
// /metrics, and their end is recorded in the ledger. The client's 500
// record carries only the generic message; the panic value and its stack
// go to the server log.
func TestSessionPanicFailsOneStream(t *testing.T) {
	inner := fittedDetector(t, "envelope")
	det := &panicDetector{Detector: inner}
	app := ledger.NewAppender(ledger.NewMemoryStore(0), ledger.Options{})
	t.Cleanup(func() { app.Close() })
	var logBuf syncBuffer
	srv, err := NewServer(Config{
		Detectors: map[string]safemon.Detector{"panicky": det},
		Ledger:    app,
		Logger:    slog.New(slog.NewTextHandler(&logBuf, nil)),
		// One shard: the panicking session shares its goroutine with
		// every other stream.
		Manager: ManagerConfig{Shards: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	client := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()
	fold := testFold(t)
	clean := fold.Test[0]
	want, err := inner.Run(ctx, clean)
	if err != nil {
		t.Fatal(err)
	}
	matchesReplay := func(got []safemon.FrameVerdict) error {
		if len(got) != len(want.Verdicts) {
			return fmt.Errorf("%d verdicts, want %d", len(got), len(want.Verdicts))
		}
		for i := range got {
			if got[i] != want.Verdicts[i] {
				return fmt.Errorf("frame %d: %+v, offline %+v", i, got[i], want.Verdicts[i])
			}
		}
		return nil
	}

	// NDJSON: the panicking stream gets a 500 record, and the shard
	// keeps serving afterwards.
	_, err = client.StreamTrajectory(ctx, "panicky", poisonedCopy(clean, 5))
	if !isHTTPError(err, http.StatusInternalServerError) {
		t.Fatalf("panicking NDJSON stream: %v, want a 500 record", err)
	}
	var em *ErrorMsg
	if errors.As(err, &em) && em.Message != ErrSessionPanic.Error() {
		t.Errorf("500 record message %q, want only %q", em.Message, ErrSessionPanic.Error())
	}
	got, err := client.StreamTrajectory(ctx, "panicky", clean)
	if err != nil {
		t.Fatalf("stream after a panic: %v", err)
	}
	if err := matchesReplay(got); err != nil {
		t.Fatalf("stream after a panic: %v", err)
	}

	// Mux: only the panicking sid gets a 500; its siblings finish with
	// their offline-replay verdicts.
	m, err := client.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const sessions = 4
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traj := clean
			if i == 0 {
				traj = poisonedCopy(clean, 7)
			}
			got, _, err := m.StreamTrajectory(ctx, "panicky", "", traj)
			if i == 0 {
				if !isHTTPError(err, http.StatusInternalServerError) {
					errs[i] = fmt.Errorf("panicking sid: %v, want a per-sid 500", err)
				}
				return
			}
			if err == nil {
				err = matchesReplay(got)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("mux session %d: %v", i, err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().SessionsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions never quiesced: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.Stats().SessionPanics; got != 2 {
		t.Errorf("/stats session_panics = %d, want 2", got)
	}
	if got := det.closed.Load(); got != 2 {
		t.Errorf("%d sessions closed, want the 2 panicked ones (the rest pooled)", got)
	}
	app.Flush()
	ends := 0
	err = app.Store().Scan(0, func(e *ledger.Event) bool {
		if e.Kind == ledger.KindSessionEnd && e.Note == "error: push" {
			ends++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if ends != 2 {
		t.Errorf("ledger holds %d push-error session ends, want 2", ends)
	}
	log := logBuf.String()
	if n := strings.Count(log, "detector session panicked"); n != 2 {
		t.Errorf("server logged %d panics, want 2:\n%s", n, log)
	}
	if !strings.Contains(log, "detector fault") || !strings.Contains(log, "panicSession") {
		t.Errorf("panic log lacks the panic value or the panicking frame's stack:\n%s", log)
	}
}

// syncBuffer is a bytes.Buffer safe for the concurrent writes of a
// shared logger.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// labelCases are ground-truth label sequences and whether admission must
// accept them: 0 (unlabeled) through gesture.MaxGesture are the
// vocabulary, anything else is refused with 400.
var labelCases = []struct {
	name   string
	labels []int
	ok     bool
}{
	{"unlabeled", []int{0, 0, 0}, true},
	{"vocabulary", []int{1, 8, gesture.MaxGesture}, true},
	{"negative", []int{1, -1, 2}, false},
	{"past-max", []int{1, gesture.MaxGesture + 1}, false},
	{"far-out", []int{999}, false},
}

// TestLabelsValidatedAtAdmission pins label validation on every
// transport: the NDJSON labels header, the binary BinLabels record and
// the mux open all refuse out-of-vocabulary labels with 400, and a mux
// connection keeps serving its other sids afterwards.
func TestLabelsValidatedAtAdmission(t *testing.T) {
	_, client := newTestService(t, map[string]safemon.Detector{"stub": &stubDetector{}}, ManagerConfig{})
	frame := testFold(t).Test[0].Frames[0]
	ctx := context.Background()

	for _, codec := range []string{"json", "binary"} {
		c := &Client{BaseURL: client.BaseURL, HTTPClient: client.HTTPClient, Codec: codec}
		for _, tc := range labelCases {
			t.Run(codec+"/"+tc.name, func(t *testing.T) {
				// An accepted stream never answers a lone labels header;
				// the deadline turns that into a failure, not a hang.
				ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
				defer cancel()
				st, err := c.Open(ctx, "stub", tc.labels)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if !tc.ok {
					if _, err := st.Recv(); !isHTTPError(err, http.StatusBadRequest) {
						t.Fatalf("labels %v: %v, want a 400 record", tc.labels, err)
					}
					return
				}
				if err := st.Send(&frame); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Recv(); err != nil {
					t.Fatalf("labels %v: %v, want a verdict", tc.labels, err)
				}
			})
		}
	}

	m, err := client.OpenMux(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, tc := range labelCases {
		t.Run("mux/"+tc.name, func(t *testing.T) {
			st, err := m.Open(ctx, "stub", "", tc.labels)
			if !tc.ok {
				if !isHTTPError(err, http.StatusBadRequest) {
					t.Fatalf("labels %v: %v, want a per-sid 400", tc.labels, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Send(&frame); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Recv(); err != nil {
				t.Fatalf("labels %v: %v, want a verdict", tc.labels, err)
			}
			if err := st.CloseSend(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplayKeepsRecordedOutOfRangeLabels pins that label validation is
// an admission rule, not a replay rule: an incident recorded with labels
// outside the vocabulary (accepted before streams were vetted) still
// replays, reproducing its recorded verdicts and actions exactly.
func TestReplayKeepsRecordedOutOfRangeLabels(t *testing.T) {
	ctx := context.Background()
	pol := guard.Policy{
		Name: "latch", Threshold: 1e-9,
		DebounceFrames: 1, ReleaseFrames: 2, EscalateFrames: 1,
		InitialAction: guard.ActionWarn, MaxAction: guard.ActionSafeStop,
	}
	det := fittedDetector(t, "envelope")
	_, client, app := newLedgeredService(t, map[string]safemon.Detector{"envelope": det}, pol)

	// Record the stream the way a stream handler does, with labels the
	// admission paths now refuse.
	frames := incidentFrames(t)
	labels := make([]int, len(frames))
	for i := range labels {
		labels[i] = 999
	}
	sess, err := det.NewSession(safemon.WithSessionLabels(labels))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	eng, err := guard.NewEngine(pol)
	if err != nil {
		t.Fatal(err)
	}
	rec := ledger.NewRecorder(app, "envelope", "", pol.Name)
	rec.Start(labels32(labels))
	for _, f := range frames {
		v, err := sess.Push(f)
		if err != nil {
			t.Fatal(err)
		}
		rec.Verdict(v, f)
		if d := eng.Step(v); d.Changed {
			rec.Action(d)
		}
	}
	rec.End(len(frames), "eof")
	app.Flush()

	incs, err := client.Incidents(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 1 {
		t.Fatalf("incidents = %+v, want exactly 1", incs)
	}
	res, err := client.ReplayIncident(ctx, incs[0].ID, "", "")
	if err != nil {
		t.Fatalf("replay of an incident with recorded labels 999: %v", err)
	}
	if !res.VerdictsMatch || !res.ActionsMatch {
		t.Errorf("replay differs from the record: verdicts match %v, actions match %v",
			res.VerdictsMatch, res.ActionsMatch)
	}
}
