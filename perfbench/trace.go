package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/freqstats"
	"repro/internal/server"
	"repro/internal/species"
	"repro/internal/sqlparse"
)

// span is one timed interval of the traced run. Start and End are
// nanoseconds since the tracer started; (Req, Parent) names the parent
// span, "" for a root.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (tr *tracer) add(name, req, parent string, start, end time.Time) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{name, req, parent, start.Sub(tr.t0).Nanoseconds(), end.Sub(tr.t0).Nanoseconds()})
	tr.mu.Unlock()
}

// durations returns the spans called name keyed by request ID, in ms.
func (tr *tracer) durations(name string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range tr.spans {
		if s.Name == name {
			out[s.Req] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		enc.Encode(s)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storage is the engine storage configuration matching uuserve's flags.
func (rn *runner) storage(dir string) engine.StorageConfig {
	if rn.w.disk {
		return engine.StorageConfig{Backend: engine.BackendDisk, Dir: dir, Durable: true, WALSync: 64}
	}
	return engine.StorageConfig{}
}

// traced replays the workload three ways and derives the per-layer
// metrics: the untraced run against uuserve (cache counters, storage
// files, recovery), the same request sequence against an in-process
// server.Server behind a timing middleware (client.request and
// server.handle spans), and a decomposition pass over identically loaded
// engine.DBs that times each module's public calls on their own.
func (rn *runner) traced() (map[string]metric, error) {
	ph, err := rn.untraced(1)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	m := map[string]metric{}
	untracedP50 := median(latencies(ph.replies))
	rn.cacheMetrics(m, ph)

	if err := rn.replayServer(tr, len(ph.replies), m); err != nil {
		return nil, err
	}
	steps := rn.schedule(len(ph.replies))
	deadline := time.Duration(rn.seconds) * time.Second / 2
	dec, err := rn.decompose(tr, steps, deadline, m)
	if err != nil {
		return nil, err
	}
	if err := rn.queryPass(tr, steps, deadline, m); err != nil {
		return nil, err
	}

	handle := tr.durations("server.handle")
	query := tr.durations("engine.query")
	client := tr.durations("client.request")
	var handleQ, handleB, clientQ, self, clientSelf []float64
	for req, h := range handle {
		if req[0] == 'b' {
			handleB = append(handleB, h)
			continue
		}
		handleQ = append(handleQ, h)
		if c, ok := client[req]; ok {
			clientQ = append(clientQ, c)
			clientSelf = append(clientSelf, c-h)
		}
		if q, ok := query[req]; ok {
			self = append(self, h-q)
		}
	}
	m["server.handle_ms_p50"] = metric{median(handleQ), "ms"}
	m["server.self_ms_p50"] = metric{median(self), "ms"}
	m["client.self_ms_p50"] = metric{median(clientSelf), "ms"}
	// The ingest handler's own time: its median minus the median Writer
	// cost of one batch from the engine replay.
	ingestSelf := 0.0
	if len(handleB) > 0 {
		ingestSelf = median(handleB) - m["engine.append_us_per_row"].Value*float64(rn.w.batchLen)/1000 - m["engine.flush_ms_p50"].Value
	}
	m["server.ingest_self_ms_p50"] = metric{ingestSelf, "ms"}

	tracedP50 := median(clientQ)
	m["trace.query_p50_ms"] = metric{tracedP50, "ms"}
	m["trace.untraced_query_p50_ms"] = metric{untracedP50, "ms"}
	m["trace.overhead_ratio"] = metric{tracedP50 / untracedP50, "ratio"}

	// core.mc_share: Monte-Carlo's share of the decomposed engine work
	// (parse, scan, coverage and every estimator, each timed alone).
	var mcSum, total float64
	for req, d := range tr.durations("decompose") {
		mcSum += dec.perEst["mc"][req]
		total += d
	}
	share := 0.0
	if total > 0 {
		share = mcSum / total
	}
	m["core.mc_share"] = metric{share, "ratio"}
	if rn.w.name == "estimate-mix" {
		rn.printRuntimeTable(dec, query)
	}
	path := filepath.Join(filepath.Dir(rn.dir), "..", "traces", fmt.Sprintf("%s-seed%d.jsonl", rn.w.name, rn.w.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), filepath.Clean(path))
	return m, nil
}

func latencies(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.lat)
	}
	return out
}

// cacheMetrics derives the cache and storage layer metrics from the
// untraced run's /v1/stats deltas and backend directory.
func (rn *runner) cacheMetrics(m map[string]metric, ph *phase) {
	b, a := ph.statsBefore.Cache, ph.statsAfter.Cache
	ratio := func(name string, hits, misses uint64) {
		lookups := hits + misses
		r := 0.0
		if lookups > 0 {
			r = float64(hits) / float64(lookups)
		}
		m[name+"_hit_ratio"] = metric{r, "ratio"}
		m[name+"_lookups"] = metric{float64(lookups), "count"}
	}
	ratio("engine.program", a.ProgramHits-b.ProgramHits, a.ProgramMisses-b.ProgramMisses)
	ratio("engine.bitmap", a.BitmapHits-b.BitmapHits, a.BitmapMisses-b.BitmapMisses)
	ratio("engine.partial", a.PartialHits-b.PartialHits, a.PartialMisses-b.PartialMisses)
	ratio("engine.result", a.ResultHits-b.ResultHits, a.ResultMisses-b.ResultMisses)
	ratio("freqstats.filter", a.FilterHits-b.FilterHits, a.FilterMisses-b.FilterMisses)
	m["engine.bitmap_evictions"] = metric{float64(a.BitmapEvictions - b.BitmapEvictions), "count"}
	m["engine.partial_evictions"] = metric{float64(a.PartialEvictions - b.PartialEvictions), "count"}
	m["engine.result_evictions"] = metric{float64(a.ResultEvictions - b.ResultEvictions), "count"}
	m["engine.result_cache_bytes"] = metric{float64(a.ResultBytes), "bytes"}
	rowsPerBatch := 0.0
	if d := ph.statsAfter.Batches; d > 0 {
		rowsPerBatch = float64(ph.statsAfter.AppliedRows) / float64(d)
	}
	m["engine.rows_per_batch"] = metric{rowsPerBatch, "rows"}
	rows := float64(len(rn.w.rows))
	m["storage.wal_bytes_per_row"] = metric{float64(ph.diskBytes[".wal"]) / rows, "bytes"}
	m["storage.segment_bytes_per_row"] = metric{float64(ph.diskBytes[".seg"]) / rows, "bytes"}
	m["storage.files"] = metric{float64(ph.diskFiles), "count"}
	m["uuserve.disk_bytes_per_row"] = metric{float64(sumValues(ph.diskBytes)) / rows, "bytes"}
	m["uuserve.recovery_s"] = metric{median(ph.recoverySecs), "s"}
	m["uuserve.peak_rss_mb"] = metric{ph.peakRSSMB, "MiB"}
	p50, p90 := batchStats(ph.batchRounds)
	m["uuserve.ingest_rows_per_s"] = metric{median(ph.rowsPerS), "rows/s"}
	m["uuserve.ingest_batch_p50_ms"] = metric{p50, "ms"}
	m["uuserve.ingest_batch_p90_ms"] = metric{p90, "ms"}
}

// replayServer replays the untraced run's request sequence against an
// in-process server.Server with the same configuration, timing every
// request on the client (client.request) and inside a middleware around
// Server.ServeHTTP (server.handle).
func (rn *runner) replayServer(tr *tracer, nQueries int, m map[string]metric) error {
	w := rn.w
	srv := server.New(server.Config{
		Backend: rn.storage(filepath.Join(rn.dir, "inproc")),
		Logger:  log.New(io.Discard, "", 0),
	})
	handler := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		srv.ServeHTTP(rw, r)
		if req := r.Header.Get("X-Bench-Req"); req != "" {
			tr.add("server.handle", req, "client.request", start, time.Now())
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}
	go hs.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Shutdown(ctx)
	}()
	c := newClient("http://"+ln.Addr().String(), rn.clients)
	defer c.close()
	if err := c.createTable(w); err != nil {
		return err
	}
	for i := 0; i < w.preloadBatches(); i++ {
		if err := c.ingest(w.batches[i], w.batchRows(i), nil); err != nil {
			return err
		}
	}
	send := func(req, sql string) {
		hdr := map[string]string{"X-Bench-Req": req}
		s := time.Now()
		status, body, err := c.query(sql, hdr)
		tr.add("client.request", req, "", s, time.Now())
		rn.op(replyErr(status, body, err), "traced replay "+sql)
	}
	gc0 := gcCPU()
	stopAt := time.Now().Add(time.Duration(rn.seconds) * time.Second * 3 / 2)
	if !w.disk {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range rn.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stopAt) {
					id := int(next.Add(1) - 1)
					if id >= nQueries {
						return
					}
					req := "q" + strconv.Itoa(id)
					send(req, w.seq[id].sql)
				}
			}()
		}
		wg.Wait()
	} else {
		var done atomic.Bool
		go func() {
			defer done.Store(true)
			for i := w.preloadBatches(); i < len(w.batches) && time.Now().Before(stopAt); i++ {
				req := "b" + strconv.Itoa(i)
				s := time.Now()
				err := c.ingest(w.batches[i], w.batchRows(i), map[string]string{"X-Bench-Req": req})
				tr.add("client.request", req, "", s, time.Now())
				rn.op(err, "traced replay batch")
			}
		}()
		for n := 0; !done.Load(); n++ {
			req := "q" + strconv.Itoa(n)
			send(req, w.seq[n%len(w.seq)].sql)
		}
	}
	m["runtime.gc_cpu_fraction"] = metric{gcCPU().fraction(gc0), "ratio"}
	return nil
}

// cpuSample is a reading of the runtime's GC and total CPU counters.
type cpuSample struct{ gc, total float64 }

func gcCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuSample{s[0].Value.Float64(), s[1].Value.Float64()}
}

func (c cpuSample) fraction(since cpuSample) float64 {
	if d := c.total - since.total; d > 0 {
		return (c.gc - since.gc) / d
	}
	return 0
}

// step is one action of an engine-level replay: apply ingest batch
// (batch >= 0) or run query seq[query] as request req.
type step struct {
	batch int
	query int
	req   string
}

// schedule lays out the engine-level replay: the setup batches, then for
// read-only workloads the first nQueries requests of the sequence, and
// for ingest-requery the streamed batches with the dashboard interleaved
// at the untraced run's queries-per-batch ratio.
func (rn *runner) schedule(nQueries int) []step {
	w := rn.w
	var out []step
	for i := 0; i < w.preloadBatches(); i++ {
		out = append(out, step{batch: i, query: -1})
	}
	if !w.disk {
		for id := 0; id < nQueries; id++ {
			out = append(out, step{batch: -1, query: id, req: "q" + strconv.Itoa(id)})
		}
		return out
	}
	stream := len(w.batches) - w.preloadBatches()
	per := float64(nQueries) / float64(max(stream, 1))
	owed, n := 0.0, 0
	for i := w.preloadBatches(); i < len(w.batches); i++ {
		out = append(out, step{batch: i, query: -1})
		for owed += per; owed >= 1; owed-- {
			out = append(out, step{batch: -1, query: n % len(w.seq), req: "q" + strconv.Itoa(n)})
			n++
		}
	}
	return out
}

// openEngine opens an engine.DB configured as uuserve configures a
// tenant and creates the workload's table.
func (rn *runner) openEngine(dir string) (*engine.DB, *engine.Table, error) {
	db := engine.Open(
		engine.WithIngest(engine.IngestConfig{}),
		engine.WithResultCache(16<<20),
		engine.WithBackend(rn.storage(dir)),
	)
	schema := engine.Schema{}
	for _, col := range rn.w.schema {
		typ := engine.TypeFloat
		if col["type"] == "string" {
			typ = engine.TypeString
		}
		schema = append(schema, engine.Column{Name: col["name"], Type: typ})
	}
	tbl, err := db.CreateTable(tableName, schema)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, tbl, nil
}

// rowAttrs builds the attribute maps of batch i, outside any timing.
func (w *workload) rowAttrs(i int) ([]obsRow, []map[string]sqlparse.Value) {
	rows := w.rows[i*w.batchLen : i*w.batchLen+w.batchRows(i)]
	attrs := make([]map[string]sqlparse.Value, len(rows))
	for j, r := range rows {
		e := &w.ents[r.ent]
		a := map[string]sqlparse.Value{"v": sqlparse.Number(e.v), "region": sqlparse.StringValue(e.region)}
		if w.name == "estimate-mix" {
			a["k"] = sqlparse.Number(e.k)
		} else {
			a["cat"] = sqlparse.StringValue(e.cat)
		}
		attrs[j] = a
	}
	return rows, attrs
}

// applyBatch writes batch i through a Writer as the ingest handler does,
// returning the summed Append time and the Flush time.
func (rn *runner) applyBatch(tbl *engine.Table, i int) (time.Duration, time.Duration, error) {
	rows, attrs := rn.w.rowAttrs(i)
	wr := tbl.NewWriter()
	var appendDur time.Duration
	for j, r := range rows {
		s := time.Now()
		err := wr.Append(rn.w.ents[r.ent].id, rn.w.sources[r.src], attrs[j])
		appendDur += time.Since(s)
		if err != nil {
			return 0, 0, err
		}
	}
	s := time.Now()
	err := wr.Flush()
	return appendDur, time.Since(s), err
}

// decomposition holds per-request estimator timings for the report.
type decomposition struct {
	perEst   map[string]map[string]float64 // estimator -> req -> ms
	entities map[string]float64
	band     map[string]int
}

// decompose replays the schedule on a fresh engine.DB and times, per
// query, sqlparse.Parse, the scan (Table.SampleContext or
// GroupedSamplesContext), species.Coverage and each estimator alone.
// The ingest batches are timed per Writer.Append and Writer.Flush; on the
// disk backend the table is then compacted and recovered, timed.
func (rn *runner) decompose(tr *tracer, steps []step, budget time.Duration, m map[string]metric) (*decomposition, error) {
	dir := filepath.Join(rn.dir, "decompose")
	db, tbl, err := rn.openEngine(dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if db != nil {
			db.Close()
		}
	}()
	dec := &decomposition{perEst: map[string]map[string]float64{}, entities: map[string]float64{}, band: map[string]int{}}
	var appendDur time.Duration
	var appended int
	var flushMs, parseUs, sampleMs, coverageUs, entities, extremeMs []float64
	var queryTime time.Duration
	for _, st := range steps {
		if st.batch >= 0 {
			a, f, err := rn.applyBatch(tbl, st.batch)
			if err != nil {
				return nil, err
			}
			appendDur += a
			appended += rn.w.batchRows(st.batch)
			flushMs = append(flushMs, ms(f))
			continue
		}
		if queryTime > budget {
			continue
		}
		q0 := time.Now()
		r := rn.w.seq[st.query]
		s := time.Now()
		q, err := sqlparse.Parse(r.sql)
		tr.add("sqlparse.parse", st.req, "decompose", s, time.Now())
		if err != nil {
			return nil, err
		}
		parseUs = append(parseUs, float64(time.Since(s).Nanoseconds())/1e3)
		attr := q.Attr
		if attr == "*" {
			attr = ""
		}
		s = time.Now()
		var samples []*freqstats.Sample
		if q.GroupBy != "" {
			groups, err := tbl.GroupedSamplesContext(context.Background(), attr, q.GroupBy, q.Where)
			if err != nil {
				return nil, err
			}
			for _, g := range groups {
				samples = append(samples, g.Sample)
			}
		} else {
			sample, err := tbl.SampleContext(context.Background(), attr, q.Where)
			if err != nil {
				return nil, err
			}
			samples = append(samples, sample)
		}
		e := time.Now()
		tr.add("engine.sample", st.req, "decompose", s, e)
		sampleMs = append(sampleMs, ms(e.Sub(s)))
		n := 0
		for _, sample := range samples {
			n += sample.C()
			s = time.Now()
			species.Coverage(sample)
			coverageUs = append(coverageUs, float64(time.Since(s).Nanoseconds())/1e3)
			for name, d := range estimate(r.agg, sample) {
				tr.add("core."+name, st.req, "decompose", time.Now().Add(-d), time.Now())
				if dec.perEst[name] == nil {
					dec.perEst[name] = map[string]float64{}
				}
				dec.perEst[name][st.req] += ms(d)
			}
		}
		if x, ok := dec.perEst["extreme"][st.req]; ok {
			extremeMs = append(extremeMs, x)
		}
		entities = append(entities, float64(n))
		dec.entities[st.req] = float64(n)
		dec.band[st.req] = r.band
		tr.add("decompose", st.req, "", q0, time.Now())
		queryTime += time.Since(q0)
	}
	m["engine.append_us_per_row"] = metric{float64(appendDur.Nanoseconds()) / 1e3 / float64(max(appended, 1)), "us"}
	m["engine.flush_ms_p50"] = metric{pct(flushMs, 50), "ms"}
	m["engine.flush_ms_p99"] = metric{pct(flushMs, 99), "ms"}
	m["sqlparse.parse_us_p50"] = metric{median(parseUs), "us"}
	m["engine.sample_ms_p50"] = metric{pct(sampleMs, 50), "ms"}
	m["engine.sample_ms_p99"] = metric{pct(sampleMs, 99), "ms"}
	m["engine.sample_entities"] = metric{median(entities), "count"}
	m["species.coverage_us_p50"] = metric{median(coverageUs), "us"}
	m["core.extreme_ms_p50"] = metric{median(extremeMs), "ms"}
	for _, name := range []string{"mc", "bucket", "naive", "freq", "bound"} {
		var xs []float64
		for _, v := range dec.perEst[name] {
			xs = append(xs, v)
		}
		metricName := "core." + name + "_ms_p50"
		if name == "freq" {
			metricName = "core.frequency_ms_p50"
		}
		m[metricName] = metric{median(xs), "ms"}
		if name == "mc" {
			m["core.mc_ms_p90"] = metric{pct(xs, 90), "ms"}
		}
	}
	compactMs, recoverMs := 0.0, 0.0
	if rn.w.disk {
		s := time.Now()
		if err := tbl.Compact(); err != nil {
			return nil, err
		}
		compactMs = ms(time.Since(s))
		if err := db.Close(); err != nil {
			return nil, err
		}
		db = engine.Open(engine.WithBackend(rn.storage(dir)))
		s = time.Now()
		if _, err := db.RecoverTables(); err != nil {
			return nil, err
		}
		recoverMs = ms(time.Since(s))
		if t, ok := db.Table(tableName); !ok || t.NumObservations() != appended {
			return nil, fmt.Errorf("recovered table does not hold the %d applied rows", appended)
		}
	}
	m["storage.compact_ms"] = metric{compactMs, "ms"}
	m["storage.recover_ms"] = metric{recoverMs, "ms"}
	return dec, nil
}

// estimate runs, each alone, the estimator calls the engine makes for an
// aggregate over one sample and returns their durations by name.
func estimate(agg string, s *freqstats.Sample) map[string]time.Duration {
	out := map[string]time.Duration{}
	timed := func(name string, fn func()) {
		t := time.Now()
		fn()
		out[name] += time.Since(t)
	}
	switch agg {
	case "SUM", "COUNT", "AVG":
		for _, est := range engine.DefaultEstimators() {
			timed(est.Name(), func() {
				switch agg {
				case "SUM":
					est.EstimateSum(s)
				case "COUNT":
					core.CountEstimate(est, s)
				default:
					core.AvgEstimate(est, s)
				}
			})
		}
		if agg == "SUM" {
			timed("bound", func() { core.UpperBound{}.Bound(s) })
		}
	case "MIN":
		timed("extreme", func() { core.MinEstimate(core.Bucket{}, s) })
	case "MAX":
		timed("extreme", func() { core.MaxEstimate(core.Bucket{}, s) })
	case "MEDIAN":
		timed("extreme", func() { core.MedianEstimate(core.Bucket{}, s) })
	}
	return out
}

// queryPass replays the schedule on another fresh engine.DB and times
// each whole DB.QueryContext call (engine.query), with the allocations
// the queries make. Read-only workloads query from as many goroutines as
// the server replay had clients, so engine.query and server.handle are
// measured under the same contention; ingest-requery interleaves its
// single dashboard client with the batches.
func (rn *runner) queryPass(tr *tracer, steps []step, budget time.Duration, m map[string]metric) error {
	db, tbl, err := rn.openEngine(filepath.Join(rn.dir, "querypass"))
	if err != nil {
		return err
	}
	defer db.Close()
	var mu sync.Mutex
	var queryMs []float64
	var queryErr error
	run := func(st step) {
		s := time.Now()
		_, err := db.QueryContext(context.Background(), rn.w.seq[st.query].sql)
		e := time.Now()
		tr.add("engine.query", st.req, "", s, e)
		mu.Lock()
		queryMs = append(queryMs, ms(e.Sub(s)))
		if err != nil && queryErr == nil {
			queryErr = err
		}
		mu.Unlock()
	}
	workers := 1
	if !rn.w.disk {
		workers = rn.clients
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var queries []step
	var t0 time.Time
	for _, st := range steps {
		if st.batch >= 0 {
			if _, _, err := rn.applyBatch(tbl, st.batch); err != nil {
				return err
			}
			continue
		}
		if t0.IsZero() {
			t0 = time.Now()
			runtime.ReadMemStats(&before)
		}
		if workers == 1 {
			if time.Since(t0) <= budget {
				run(st)
			}
			continue
		}
		queries = append(queries, st)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) <= budget {
				i := int(next.Add(1) - 1)
				if i >= len(queries) {
					return
				}
				run(queries[i])
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	if queryErr != nil {
		return queryErr
	}
	n := float64(max(len(queryMs), 1))
	m["engine.query_ms_p50"] = metric{pct(queryMs, 50), "ms"}
	m["engine.query_ms_p99"] = metric{pct(queryMs, 99), "ms"}
	m["runtime.allocs_per_query"] = metric{float64(after.Mallocs-before.Mallocs) / n, "count"}
	m["runtime.alloc_mb_per_query"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / n / (1 << 20), "MiB"}
	return nil
}

// printRuntimeTable prints the Section 6.1.5 per-estimator runtime table
// (median ms per query) for each sample-size band of estimate-mix.
func (rn *runner) printRuntimeTable(dec *decomposition, query map[string]float64) {
	names := []string{"naive", "freq", "bucket", "mc", "bound"}
	fmt.Printf("runtime table (median ms per query): band entities queries %v engine.query\n", names)
	for band, label := range []string{"100-300", "600-900"} {
		var reqs []string
		for req, b := range dec.band {
			if b == band {
				reqs = append(reqs, req)
			}
		}
		sort.Strings(reqs)
		col := func(src map[string]float64) float64 {
			var xs []float64
			for _, r := range reqs {
				if v, ok := src[r]; ok {
					xs = append(xs, v)
				}
			}
			return median(xs)
		}
		line := fmt.Sprintf("runtime table: %s %.0f %d", label, col(dec.entities), len(reqs))
		for _, n := range names {
			line += fmt.Sprintf(" %.3f", col(dec.perEst[n]))
		}
		fmt.Printf("%s %.3f\n", line, col(query))
	}
}
