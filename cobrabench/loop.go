package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// server is an in-process cobrad: serve.New behind a loopback listener,
// with the server's default configuration (GOMAXPROCS workers, serial
// simulator) and a fresh ledger directory.
type server struct {
	srv       *serve.Server
	http      *http.Server
	url       string
	ledgerDir string
	done      chan struct{}
}

func startServer(workDir string) (*server, error) {
	dir, err := os.MkdirTemp(workDir, "ledger-")
	if err != nil {
		return nil, fmt.Errorf("ledger dir: %w", err)
	}
	srv, err := serve.New(serve.Config{LedgerDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), ledgerDir: dir, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// stop drains the listener and the session pool, waits for the serving
// goroutine and removes the ledger directory.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errHTTP := s.http.Shutdown(ctx)
	<-s.done
	errSrv := s.srv.Shutdown(ctx)
	return errors.Join(errHTTP, errSrv, os.RemoveAll(s.ledgerDir))
}

// client is one closed-loop caller with its own single connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 5 * time.Minute}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// served is what the closed loop observed for one session.
type served struct {
	Outcome   outcome
	Key       string // the server's content hash of the spec
	Cached    bool
	SubmitMS  float64 // POST round trip
	LatencyMS float64 // submit to the terminal state, plus one round trip; see runSession
	PollMS    float64 // how much later the polling client saw the terminal state
	ServerMS  float64 // the server's done_at - created_at
	QueueMS   float64 // started_at - created_at; -1 for a ledger hit
	Result    []byte  // canonical Measurement JSON
	Artifacts map[string]artifactSum
	Err       string
}

// artifactSum identifies an artifact's bytes without keeping them.
type artifactSum struct {
	Bytes int
	Sum   [sha256.Size]byte
}

func sumOf(b []byte) artifactSum { return artifactSum{len(b), sha256.Sum256(b)} }

func requested(a serve.ArtifactConfig) []string {
	var kinds []string
	if a.Metrics {
		kinds = append(kinds, "metrics")
	}
	if a.Decisions {
		kinds = append(kinds, "decisions")
	}
	if a.Trace {
		kinds = append(kinds, "trace")
	}
	return kinds
}

// runSession submits one request, polls until the session is terminal,
// and fetches the result's artifacts. It returns an error only when the
// benchmark itself cannot talk to the server.
//
// The latency is what a client told of the terminal state at once would
// see: from submit to the server's done_at, plus the round trip of the
// request that read the terminal state (just the POST's round trip when
// its answer is already terminal, as for a ledger hit). The server and
// the client share one clock. The polling client learns of the state
// later, by up to its poll interval; that delay is PollMS, kept out of
// the latency so that the latency moves with the server and not on the
// grid of the client's polls.
func (c *client) runSession(req serve.SubmitRequest) (served, error) {
	var out served
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	status, data, err := c.do("POST", "/sessions", body)
	if err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	out.SubmitMS = ms(time.Since(t0))
	out.LatencyMS = out.SubmitMS
	switch status {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		out.Outcome, out.Err = outcomeRefused, string(data)
		return out, nil
	default:
		return out, fmt.Errorf("submit: status %d: %s", status, data)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	id := info.ID
	var g0, g1 time.Time // the last poll's round trip
	for !info.State.Terminal() {
		// Poll at an eighth of the time waited so far: a few polls per
		// session whatever its length.
		time.Sleep(min(max(time.Since(t0)/8, 500*time.Microsecond), 25*time.Millisecond))
		g0 = time.Now()
		status, data, err := c.do("GET", "/sessions/"+id, nil)
		if err != nil || status != http.StatusOK {
			return out, fmt.Errorf("poll %s: status %d: %v %s", id, status, err, data)
		}
		g1 = time.Now()
		info = serve.SessionInfo{}
		if err := json.Unmarshal(data, &info); err != nil {
			return out, fmt.Errorf("poll %s: %w", id, err)
		}
	}
	created, started, finished := parseTime(info.CreatedAt), parseTime(info.StartedAt), parseTime(info.DoneAt)
	if !g1.IsZero() {
		out.LatencyMS = ms(finished.Sub(t0) + g1.Sub(g0))
		out.PollMS = ms(g1.Sub(t0)) - out.LatencyMS
	}
	out.ServerMS = ms(finished.Sub(created))
	out.QueueMS = -1
	if !started.IsZero() {
		out.QueueMS = ms(started.Sub(created))
	}
	out.Key, out.Cached = info.Key, info.Cached
	switch info.State {
	case serve.StateDone:
		out.Outcome = outcomeDone
	case serve.StateCancelled:
		out.Outcome, out.Err = outcomeCancelled, info.Error
		return out, nil
	default:
		out.Outcome, out.Err = outcomeFailed, info.Error
		return out, nil
	}
	if info.Result == nil {
		return out, fmt.Errorf("session %s done without a result", id)
	}
	if out.Result, err = canonical(*info.Result); err != nil {
		return out, err
	}
	if kinds := requested(req.Artifacts); len(kinds) > 0 && !info.Cached {
		out.Artifacts = map[string]artifactSum{}
		for _, k := range kinds {
			status, data, err := c.do("GET", "/sessions/"+id+"/artifacts/"+k, nil)
			if err != nil || status != http.StatusOK {
				return out, fmt.Errorf("artifact %s of %s: status %d: %v", k, id, status, err)
			}
			out.Artifacts[k] = sumOf(data)
		}
	}
	return out, nil
}

func canonical(m workload.Measurement) ([]byte, error) { return json.Marshal(m) }

func parseTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s) // empty (never started) parses to the zero time
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dispenser hands out plan indices in order. Once the deadline has
// passed and the core is handed out, it stops at the next block boundary,
// so the attempted sessions are always whole blocks.
type dispenser struct {
	p       *plan
	start   time.Time
	d       time.Duration
	mu      sync.Mutex
	next    int
	stopped bool
}

func (ds *dispenser) take() (int, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.next >= len(ds.p.Sessions) ||
		ds.next >= ds.p.Core && ds.next%ds.p.Block == 0 && time.Since(ds.start) >= ds.d {
		ds.stopped = true
	}
	if ds.stopped {
		return 0, false
	}
	ds.next++
	return ds.next - 1, true
}

// closedLoop drives p through the server with the given number of
// clients: each submits its next session only after the previous one is
// terminal. Sessions in flight when the dispenser stops run to the end.
// It returns one record per attempted session, in plan order, and the
// wall time from the first submit to the last terminal state.
func closedLoop(base string, p *plan, clients int, d time.Duration) ([]served, time.Duration, error) {
	ds := &dispenser{p: p, start: time.Now(), d: d}
	out := make([]served, len(p.Sessions))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			for {
				i, ok := ds.take()
				if !ok {
					return
				}
				s, err := cl.runSession(p.Sessions[i].Req)
				if err != nil {
					errs[c] = fmt.Errorf("session %d: %w", i, err)
					return
				}
				out[i] = s
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(ds.start)
	if err := errors.Join(errs...); err != nil {
		return nil, wall, err
	}
	return out[:ds.next], wall, nil
}
