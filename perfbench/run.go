package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// reply is one completed request of a timed phase.
type reply struct {
	id     int
	start  time.Time
	lat    time.Duration
	status int
	body   []byte
	err    error
}

// phase collects everything the untraced run measures. Ingest figures
// come in rounds (one per set-up preload, or per ingest-requery stream)
// and query latencies in windows, so each metric can be the median over
// rounds or windows and a burst of machine noise in one of them does
// not move it.
type phase struct {
	setupSecs    []float64
	rowsPerS     []float64   // ingest throughput per round
	batchRounds  [][]float64 // ingest batch latencies (ms) per round
	replies      []reply     // every timed query, in completion order
	windows      []window
	statsBefore  serverStats
	statsAfter   serverStats
	peakRSSMB    float64
	relErrs      []float64
	digest       string
	diskBytes    map[string]int64
	diskFiles    int
	recoverySecs []float64
}

// window is one stretch of the timed phase: its query latencies (ms) and
// its length.
type window struct {
	lat  []float64
	secs float64
}

// runner holds one run's inputs, bookkeeping and failure log.
type runner struct {
	w         *workload
	uuserve   string
	dir       string
	seconds   int
	clients   int
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	failures  []string
}

func (rn *runner) fail(format string, args ...any) {
	rn.failed.Add(1)
	rn.mu.Lock()
	if len(rn.failures) < 20 {
		rn.failures = append(rn.failures, fmt.Sprintf(format, args...))
	}
	rn.mu.Unlock()
}

// op counts one attempted operation and records err as a failure.
func (rn *runner) op(err error, what string) {
	rn.attempted.Add(1)
	if err != nil {
		rn.fail("%s: %v", what, err)
	}
}

// daemonArgs are the uuserve flags of the workload (beyond -addr).
func (rn *runner) daemonArgs(storeDir string) []string {
	if rn.w.disk {
		return []string{"-backend", "disk", "-backend-dir", storeDir, "-durable", "-wal-sync", "64"}
	}
	return []string{"-backend", "mem"}
}

// setup starts uuserve, creates the table, preloads the workload's
// setup rows over one connection (steadier batch timings than two) and
// runs the warm-up queries. It returns the live daemon; the set-up time
// and, for read-only workloads, the preload round are appended to ph.
func (rn *runner) setup(ph *phase, rep int) (*daemon, *client, error) {
	storeDir := filepath.Join(rn.dir, fmt.Sprintf("store%d", rep))
	t0 := time.Now()
	d, err := startDaemon(rn.uuserve, filepath.Join(rn.dir, "uuserve.log"), rn.daemonArgs(storeDir))
	if err != nil {
		return nil, nil, err
	}
	c := newClient(d.base, rn.clients)
	if err := c.createTable(rn.w); err != nil {
		d.kill()
		return nil, nil, err
	}
	lat := make([]float64, rn.w.preloadBatches())
	l0 := time.Now()
	for i := range lat {
		b0 := time.Now()
		err := c.ingest(rn.w.batches[i], rn.w.batchRows(i), nil)
		lat[i] = ms(time.Since(b0))
		rn.op(err, fmt.Sprintf("preload batch %d", i))
	}
	if !rn.w.disk {
		ph.rowsPerS = append(ph.rowsPerS, float64(rn.w.preload)/time.Since(l0).Seconds())
		ph.batchRounds = append(ph.batchRounds, lat)
	}
	for _, r := range rn.w.warmup {
		status, body, err := c.query(r.sql, nil)
		rn.op(replyErr(status, body, err), "warm-up "+r.sql)
	}
	ph.setupSecs = append(ph.setupSecs, time.Since(t0).Seconds())
	return d, c, nil
}

// batchRows is the number of rows in batch i.
func (w *workload) batchRows(i int) int {
	return min((i+1)*w.batchLen, len(w.rows)) - i*w.batchLen
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// untraced runs the workload against the uuserve child with every
// correctness check: for ingest-requery, `rounds` rounds of set-up and
// stream; otherwise `rounds` set-ups, the last of which stays up for the
// timed phase.
func (rn *runner) untraced(rounds int) (*phase, error) {
	ph := &phase{}
	if rn.w.disk {
		for r := range rounds {
			if err := rn.ingestRound(ph, r, r == rounds-1); err != nil {
				return nil, err
			}
		}
		return ph, nil
	}
	var d *daemon
	var c *client
	for rep := 0; rep < rounds; rep++ {
		if d != nil {
			d.kill()
			c.close()
			os.RemoveAll(filepath.Join(rn.dir, fmt.Sprintf("store%d", rep-1)))
		}
		var err error
		if d, c, err = rn.setup(ph, rep); err != nil {
			return nil, err
		}
	}
	defer func() { d.kill(); c.close() }()
	var err error
	if ph.statsBefore, err = c.stats(); err != nil {
		return nil, err
	}
	return ph, rn.readOnly(ph, d, c)
}

// closedLoop runs seq over n clients, each sending its next
// request when its previous reply arrived, until stop() or the sequence
// ends. Replies are returned in completion order.
func closedLoop(c *client, seq []request, n int, stop func() bool) ([]reply, float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	t0 := time.Now()
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []reply
			for !stop() {
				id := int(next.Add(1) - 1)
				if id >= len(seq) {
					break
				}
				s := time.Now()
				status, body, err := c.query(seq[id].sql, nil)
				local = append(local, reply{id: id, start: s, lat: time.Since(s), status: status, body: body, err: err})
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(t0).Seconds()
}

// readOnly is the timed phase of estimate-mix and drilldown-extremes.
func (rn *runner) readOnly(ph *phase, d *daemon, c *client) error {
	w := rn.w
	t0 := time.Now()
	deadline := t0.Add(time.Duration(rn.seconds) * time.Second)
	var secs float64
	ph.replies, secs = closedLoop(c, w.seq, rn.clients, func() bool { return time.Now().After(deadline) })
	ph.windows = make([]window, w.windows)
	for i := range ph.windows {
		ph.windows[i].secs = secs / float64(w.windows)
	}
	for _, r := range ph.replies {
		k := min(int(r.start.Sub(t0).Seconds()/secs*float64(w.windows)), w.windows-1)
		ph.windows[k].lat = append(ph.windows[k].lat, ms(r.lat))
	}
	var err error
	if ph.statsAfter, err = c.stats(); err != nil {
		return err
	}
	ph.peakRSSMB = d.peakRSSMB()
	// Complete the scored prefix untimed if the timed phase fell short.
	byID := make([][]byte, w.digestN)
	for _, r := range ph.replies {
		if r.id < w.digestN && r.err == nil && r.status == 200 {
			byID[r.id] = r.body
		}
	}
	mask := w.observedMask(len(w.rows))
	for id := range byID {
		if byID[id] == nil {
			s := time.Now()
			status, body, err := c.query(w.seq[id].sql, nil)
			rn.checkReply(reply{id: id, start: s, lat: time.Since(s), status: status, body: body, err: err}, mask)
			byID[id] = body
		}
	}
	ph.digest = digest(byID)
	for id, body := range byID {
		if e, ok := w.relErr(w.seq[id], body); ok {
			ph.relErrs = append(ph.relErrs, e)
		}
	}
	for _, r := range ph.replies {
		rn.checkReply(r, mask)
	}
	return nil
}

// replyErr is the failure of a query reply: a transport error or a
// status other than 200.
func replyErr(status int, body []byte, err error) error {
	if err == nil && status != 200 {
		err = fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	return err
}

// checkReply counts one timed query and checks it against the oracle.
func (rn *runner) checkReply(r reply, mask []bool) {
	err := replyErr(r.status, r.body, r.err)
	if err == nil {
		err = rn.w.checkAnswer(rn.w.seq[r.id], r.body, mask)
	}
	rn.op(err, fmt.Sprintf("request %d %q", r.id, rn.w.seq[r.id].sql))
}

// ingestRound is one round of ingest-requery: set up and preload, stream
// the remaining rows as NDJSON batches from one client while a second
// loops the dashboard, verify the final state, then kill -9 the daemon,
// restart it on the same directory and time the restart until the first
// correct answer. The last round also scores the accuracy probe, measures
// the backend directory and computes the digest.
func (rn *runner) ingestRound(ph *phase, round int, last bool) error {
	w := rn.w
	storeDir := filepath.Join(rn.dir, fmt.Sprintf("store%d", round))
	d, c, err := rn.setup(ph, round)
	if err != nil {
		return err
	}
	defer func() { d.kill(); c.close(); os.RemoveAll(storeDir) }()
	if ph.statsBefore, err = c.stats(); err != nil {
		return err
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	var lat []float64
	var rows int
	var secs float64
	wg.Add(1)
	t0 := time.Now()
	go func() {
		defer wg.Done()
		defer done.Store(true)
		deadline := t0.Add(time.Duration(rn.seconds) * time.Second)
		for i := w.preloadBatches(); i < len(w.batches) && time.Now().Before(deadline); i++ {
			b0 := time.Now()
			err := c.ingest(w.batches[i], w.batchRows(i), nil)
			lat = append(lat, ms(time.Since(b0)))
			rn.op(err, fmt.Sprintf("stream batch %d", i))
			if err == nil {
				rows += w.batchRows(i)
			}
		}
		secs = time.Since(t0).Seconds()
	}()
	// The dashboard loops its fixed queries for as long as rows stream.
	var loop []request
	for len(loop) < 1<<16 {
		loop = append(loop, w.seq...)
	}
	replies, qsecs := closedLoop(c, loop, 1, done.Load)
	wg.Wait()
	ph.batchRounds = append(ph.batchRounds, lat)
	ph.rowsPerS = append(ph.rowsPerS, float64(rows)/secs)
	for i := range replies {
		replies[i].id %= len(w.seq)
	}
	ph.replies = append(ph.replies, replies...)
	ph.windows = append(ph.windows, window{latencies(replies), qsecs})
	acked := w.preload + rows
	preMask, finalMask := w.observedMask(w.preload), w.observedMask(acked)
	for _, r := range replies {
		err := replyErr(r.status, r.body, r.err)
		if err == nil {
			err = w.checkStreaming(w.seq[r.id], r.body, preMask, finalMask)
		}
		rn.op(err, fmt.Sprintf("dashboard %q under writes", w.seq[r.id].sql))
	}
	if ph.statsAfter, err = c.stats(); err != nil {
		return err
	}
	rn.op(w.checkCounts(ph.statsAfter, acked), "stats after the stream")
	ph.peakRSSMB = max(ph.peakRSSMB, d.peakRSSMB())
	final := rn.dashboard(c, w.seq, finalMask, "after the stream")
	var probe [][]byte
	if last {
		probe = rn.dashboard(c, w.probe, finalMask, "accuracy probe")
		for i, r := range w.probe {
			if e, ok := w.relErr(r, probe[i]); ok {
				ph.relErrs = append(ph.relErrs, e)
			}
		}
		ph.diskBytes, ph.diskFiles = dirUsage(storeDir)
	}
	d.kill()
	r0 := time.Now()
	if err := d.restart(); err != nil {
		return err
	}
	ok := false
	for time.Since(r0) < 60*time.Second {
		status, body, err := c.query(w.seq[0].sql, nil)
		if err == nil && status == 200 && w.checkAnswer(w.seq[0], body, finalMask) == nil {
			ok = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	ph.recoverySecs = append(ph.recoverySecs, time.Since(r0).Seconds())
	if !ok {
		rn.op(fmt.Errorf("no correct answer within 60s"), "restart after kill -9")
		return nil
	}
	st, err := c.stats()
	if err == nil {
		err = w.checkCounts(st, acked)
	}
	rn.op(err, "stats after kill -9 restart")
	after := rn.dashboard(c, w.seq, finalMask, "after the kill -9 restart")
	if last {
		ph.digest = digest(append(append(final, probe...), after...))
	}
	return nil
}

// dashboard runs the requests once, in order, and checks every answer
// exactly against the entities in mask.
func (rn *runner) dashboard(c *client, reqs []request, mask []bool, when string) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		status, body, err := c.query(r.sql, nil)
		if err = replyErr(status, body, err); err == nil {
			err = rn.w.checkAnswer(r, body, mask)
		}
		rn.op(err, fmt.Sprintf("dashboard %q %s", r.sql, when))
		out[i] = body
	}
	return out
}

// checkCounts compares /v1/stats record and observation counts with the
// generator's for the first nrows observations.
func (w *workload) checkCounts(st serverStats, nrows int) error {
	records := 0
	for _, seen := range w.observedMask(nrows) {
		if seen {
			records++
		}
	}
	if st.Records != records || st.Observations != nrows {
		return fmt.Errorf("records/observations %d/%d, want %d/%d", st.Records, st.Observations, records, nrows)
	}
	return nil
}

// checkStreaming bounds an answer served while rows stream in: the
// visible entity set lies between the preloaded and the final one, so
// MIN and MAX are monotone between the two closed-world answers and the
// MEDIAN lies within the final range.
func (w *workload) checkStreaming(r request, body []byte, pre, final []bool) error {
	var qb queryBody
	if err := json.Unmarshal(body, &qb); err != nil {
		return err
	}
	obs := qb.Observed
	if qb.Extreme != nil {
		obs = qb.Extreme.Observed
	}
	if obs == nil {
		return fmt.Errorf("no observed value")
	}
	lo := w.expected(request{agg: "MIN", pred: r.pred}, final)[""]
	hi := w.expected(request{agg: "MAX", pred: r.pred}, final)[""]
	switch r.agg {
	case "MIN":
		hi = w.expected(r, pre)[""]
	case "MAX":
		lo = w.expected(r, pre)[""]
	}
	if *obs < lo || *obs > hi {
		return fmt.Errorf("observed %v outside [%v, %v]", *obs, lo, hi)
	}
	return checkScalar(r.agg, &qb, *obs)
}
