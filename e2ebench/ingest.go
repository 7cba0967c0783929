package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	parparaw "repro"
	"repro/internal/workload"
)

// The daemon set-up cmd/parparawd uses by default.
const (
	ingestPartition = 4 << 20
	ingestClients   = 2 // closed-loop loaders, each its own tenant
	serverSetups    = 101
)

// dialect is one body family of the ingest mix.
type dialect struct {
	name    string
	query   string // /ingest query selecting the dialect
	format  string
	header  bool
	spec    workload.Spec
	columns int
	// count is the benchmark's own record counter for the generated
	// bytes, independent of the parser.
	count func([]byte) int
}

var dialects = []dialect{
	{name: "csv-taxi", query: "format=csv", format: "csv", spec: workload.Taxi(), columns: 17, count: countRecords},
	{name: "csv-yelp", query: "format=csv", format: "csv", spec: workload.Yelp(), columns: 9, count: countRecords},
	{name: "jsonl", query: "format=jsonl", format: "jsonl", spec: workload.JSONLines(), columns: 12, count: countLines},
	{name: "weblog", query: "format=weblog&header=1", format: "weblog", header: true, spec: workload.Weblog(),
		columns: 9, count: countWeblogRecords},
}

// options are the Options the server builds from the dialect's query.
func (d dialect) options() (parparaw.Options, error) {
	f, err := parparaw.FormatByName(d.format)
	if err != nil {
		return parparaw.Options{}, err
	}
	return parparaw.Options{Format: f, HasHeader: d.header}, nil
}

// countLines counts newline-terminated records (JSON Lines: raw
// newlines never occur inside a record).
func countLines(data []byte) int { return bytes.Count(data, []byte{'\n'}) }

// countWeblogRecords counts the lines that are not '#' directives.
func countWeblogRecords(data []byte) int {
	n := 0
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) > 0 && line[0] != '#' {
			n++
		}
	}
	return n
}

// body is one generated request body with its expected outputs.
type body struct {
	dialect *dialect
	data    []byte
	records int
	// csvSHA is the SHA-256 of WriteCSV over a buffered Engine.Parse of
	// the body: the reference for output=csv answers, computed through
	// a different route than the daemon's StreamReader.
	csvSHA string
}

// job is one request of the mix.
type job struct {
	body *body
	csv  bool
}

// ingestMix holds the bodies and defines the job sequence: job j sends
// dialect j%4, cycling over the variants, and every fourth cycle asks
// for output=csv — a quarter of the jobs. With 5 variants the sequence
// repeats every 80 jobs, and every body is requested as csv.
type ingestMix struct {
	bodies [][]*body // [dialect][variant]
}

func (m *ingestMix) job(j int) job {
	cycle := j / len(dialects)
	return job{body: m.bodies[j%len(dialects)][cycle%len(m.bodies[0])], csv: cycle%4 == 0}
}

// period is the length after which the job sequence repeats.
func (m *ingestMix) period() int {
	v := len(m.bodies[0])
	l := v
	for l%4 != 0 {
		l += v
	}
	return len(dialects) * l
}

func (m *ingestMix) bytes() int64 {
	var n int64
	for _, bs := range m.bodies {
		for _, b := range bs {
			n += int64(len(b.data))
		}
	}
	return n
}

// newIngestMix generates every body from the seed and computes its
// reference CSV digest.
func newIngestMix(cfg config) (*ingestMix, error) {
	m := &ingestMix{bodies: make([][]*body, len(dialects))}
	for di := range dialects {
		d := &dialects[di]
		opts, err := d.options()
		if err != nil {
			return nil, err
		}
		ref, err := parparaw.NewEngine(opts)
		if err != nil {
			return nil, err
		}
		for v := 0; v < cfg.variants; v++ {
			data := d.spec.Generate(cfg.bodyBytes, cfg.seed*1000+int64(di*100+v))
			res, err := ref.Parse(data)
			if err != nil {
				return nil, fmt.Errorf("%s reference parse: %w", d.name, err)
			}
			hw := newHashingWriter()
			if err := parparaw.WriteCSV(hw, res.Table); err != nil {
				return nil, err
			}
			m.bodies[di] = append(m.bodies[di], &body{dialect: d, data: data, records: d.count(data), csvSHA: hw.sum()})
		}
	}
	return m, nil
}

// daemon is a running in-process server on a loopback listener.
type daemon struct {
	srv  *parparaw.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startDaemon sets a server up like cmd/parparawd's defaults and
// returns once /healthz answers 200, with the time that took.
func startDaemon(wrap func(http.Handler) http.Handler) (*daemon, time.Duration, error) {
	start := time.Now()
	srv := parparaw.NewServer(parparaw.ServerConfig{
		CacheEngines:  parparaw.DefaultCacheEngines,
		PartitionSize: ingestPartition,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(),
		done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := probe.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 10*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("server not healthy after 10s: %v", err)
		}
	}
	return d, time.Since(start), nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.http.Shutdown(ctx); err != nil {
		d.http.Close()
	}
	<-d.done
}

// outcome is one request's client-side result.
type outcome struct {
	job     job
	latency time.Duration
	status  int
	err     error // transport failure or wrong output
}

// traffic drives two closed-loop clients, each its own tenant, until
// the run has lasted cfg.seconds and at least cfg.minRequests requests
// completed. Each client starts at its own offset of the job sequence.
func traffic(cfg config, d *daemon, mix *ingestMix, t *tracer) ([]outcome, time.Duration) {
	var (
		mu       sync.Mutex
		outs     []outcome
		finished atomic.Int64
		issued   atomic.Int64 // request ids: the runs of their spans
		wg       sync.WaitGroup
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	start := time.Now()
	for c := 0; c < ingestClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			tenant := "tenant-" + strconv.Itoa(c)
			for k := 0; ; k++ {
				if finished.Load() >= int64(cfg.minRequests) && time.Now().After(deadline) {
					return
				}
				j := c*mix.period()/ingestClients + k
				o := send(client, d.url, tenant, mix.job(j), t, int(issued.Add(1)))
				finished.Add(1)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// spanHeader carries a request's run and client span id to the traced
// server middleware.
const spanHeader = "X-E2ebench-Span"

// send posts one job and checks the answer.
func send(client *http.Client, base, tenant string, jb job, t *tracer, run int) outcome {
	o := outcome{job: jb}
	url := base + "/ingest?" + jb.body.dialect.query + "&tenant=" + tenant
	if jb.csv {
		url += "&output=csv"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(jb.body.data))
	if err != nil {
		o.err = err
		return o
	}
	cs := t.start(run, 0, "client")
	req.Header.Set(spanHeader, strconv.Itoa(run)+","+strconv.Itoa(cs.id))
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		cs.end()
		o.err = err
		return o
	}
	o.status = resp.StatusCode
	var got string
	var summary parparaw.IngestSummary
	if resp.StatusCode == http.StatusOK && jb.csv {
		hw := newHashingWriter()
		_, err = io.Copy(hw, resp.Body)
		got = hw.sum()
	} else if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&summary)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.latency = time.Since(start)
	cs.end()
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("status %d", resp.StatusCode)
	case jb.csv && got != jb.body.csvSHA:
		o.err = fmt.Errorf("%s output=csv digest %s, reference %s", jb.body.dialect.name, got, jb.body.csvSHA)
	case !jb.csv && (summary.Rows != int64(jb.body.records) || summary.Columns != jb.body.dialect.columns):
		o.err = fmt.Errorf("%s summary: %d rows x %d columns, generated %d records x %d columns",
			jb.body.dialect.name, summary.Rows, summary.Columns, jb.body.records, jb.body.dialect.columns)
	}
	return o
}

// tally folds the outcomes into the result, records each request
// kind's median latency, and returns the bytes sent, the bytes answered
// correctly, the latencies of the requests that succeeded and the
// count of 429 answers.
func tally(res *result, outs []outcome) (sent, okBytes int64, lat []float64, rejects int) {
	byKind := make(map[string][]float64)
	for _, o := range outs {
		res.attempted++
		sent += int64(len(o.job.body.data))
		if o.status == http.StatusTooManyRequests {
			rejects++
		}
		if o.err != nil {
			res.fail("%s: %v", o.job.body.dialect.name, o.err)
			continue
		}
		okBytes += int64(len(o.job.body.data))
		lat = append(lat, o.latency.Seconds())
		kind := o.job.body.dialect.name
		if o.job.csv {
			kind += "+csv"
		}
		byKind[kind] = append(byKind[kind], o.latency.Seconds()*1e3)
	}
	p50s := make(map[string]string)
	for kind, ls := range byKind {
		p50s[kind] = fmt.Sprintf("%.1f ms of %d", median(ls), len(ls))
	}
	res.record["requests"] = len(outs)
	res.record["latency_p50_by_kind"] = p50s
	return sent, okBytes, lat, rejects
}

func runIngest(cfg config) (*result, error) {
	res := newResult("ingest-mixed", cfg)
	var wrap func(http.Handler) http.Handler
	var t *tracer
	if cfg.trace {
		t = newTracer()
		wrap = func(h http.Handler) http.Handler { return middleware(h, t) }
	}
	// Set-up is timed before anything else runs, so no input generation
	// perturbs it; the first set-up is an untimed warm-up and the last
	// server stays up for the traffic.
	setups := make([]float64, serverSetups+1)
	var d *daemon
	for i := range setups {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, took, err = startDaemon(wrap); err != nil {
			return nil, err
		}
		setups[i] = took.Seconds()
	}
	defer d.stop()
	res.metrics["setup_s"] = median(setups[1:])

	mix, err := newIngestMix(cfg)
	if err != nil {
		return nil, err
	}
	res.record["input_bytes"] = mix.bytes()
	records := make(map[string]int)
	for _, bs := range mix.bodies {
		for _, b := range bs {
			records[b.dialect.name] += b.records
		}
	}
	res.record["records_per_dialect"] = records
	res.record["clients"] = ingestClients
	settle()

	before := readCounters()
	outs, wall := traffic(cfg, d, mix, t)
	after := readCounters()
	sent, okBytes, lat, rejects := tally(res, outs)
	// The live heap still holds the generated bodies; they are the
	// benchmark's input, not the server's.
	retained := liveHeapMB() - float64(mix.bytes())/1e6
	runtime.KeepAlive(mix)
	peak := peakRSSMB()

	if !cfg.trace {
		res.metrics["throughput_mb_s"] = float64(okBytes) / 1e6 / wall.Seconds()
		res.metrics["latency_p50_ms"] = median(lat) * 1e3
		res.metrics["latency_p90_ms"] = quantile(lat, 0.9) * 1e3
		res.metrics["peak_rss_mb"] = peak
		res.metrics["retained_mb"] = retained
		res.metrics["failed_share"] = float64(res.failed) / float64(res.attempted)
		return res, nil
	}

	res.metrics["server.retained_mb"] = retained
	res.metrics["server.peak_rss_mb"] = peak
	res.metrics["admission.rejects"] = float64(rejects)
	res.metrics["alloc_bytes_per_byte"] = float64(after.alloc-before.alloc) / float64(sent)
	res.metrics["gc.cpu_s"] = after.gc - before.gc
	res.metrics["sys.cpu_s"] = (after.sys - before.sys).Seconds()
	cs := d.srv.Cache().Stats()
	res.metrics["cache.hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	handle := t.byRun("handle")
	client := t.byRun("client")
	var handles, overheads []float64
	for run, h := range handle {
		handles = append(handles, h.Seconds())
		if c, ok := client[run]; ok {
			overheads = append(overheads, (c - h).Seconds())
		}
	}
	res.metrics["server.handle_p50_ms"] = median(handles) * 1e3
	res.metrics["server.handle_p90_ms"] = quantile(handles, 0.9) * 1e3
	res.metrics["http.overhead_p50_ms"] = median(overheads) * 1e3
	return res, traceIngest(cfg, res, d.srv, mix, t)
}

// middleware records a span around the server's handler for every
// request, parented to the client span named in spanHeader.
func middleware(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		run, parent := -1, 0
		if v := r.Header.Get(spanHeader); v != "" {
			fmt.Sscanf(v, "%d,%d", &run, &parent)
		}
		if run < 0 {
			h.ServeHTTP(w, r)
			return
		}
		s := t.start(run, parent, "handle")
		h.ServeHTTP(w, r)
		s.end()
	})
}

// instantBus is the delay-free interconnect the daemon streams bodies
// over (server.go): it streams for bounded memory, not bus modelling.
var instantBus = parparaw.BusConfig{Latency: -1, TimeScale: 1e9}

// replayStats accumulates the program-reported statistics of a replay.
type replayStats struct {
	ring               parparaw.StreamStats // summed, in_flight and carry as maxima
	prescanned         int64
	deviceBytesPerByte float64
	csvBytes           int64
	phases             map[string]time.Duration
	executed           int64
}

// replayJobs sends each job of one period of the sequence once through
// the library calls the daemon makes: EngineCache.GetKeyed,
// Engine.StreamReader, StreamResult.Combined, then WriteCSV or the JSON
// summary. With a tracer, each job is a run with a span per call, and a
// buffered Engine.Parse of the body follows outside the job's span for
// the per-phase times the streaming route does not report. Runs are
// numbered after the traffic's request ids.
func replayJobs(res *result, srv *parparaw.Server, mix *ingestMix, t *tracer, runBase int) (replayStats, error) {
	st := replayStats{phases: make(map[string]time.Duration)}
	for j := 0; j < mix.period(); j++ {
		jb := mix.job(j)
		b := jb.body
		run := runBase + j
		opts, err := b.dialect.options()
		if err != nil {
			return st, err
		}
		res.attempted++
		root := t.start(run, 0, "job")
		s := t.start(run, root.id, "cache")
		e, _, _, err := srv.Cache().GetKeyed(opts)
		s.end()
		if err != nil {
			return st, err
		}
		s = t.start(run, root.id, "stream")
		sres, err := e.StreamReader(&timedReader{r: bytes.NewReader(b.data), t: t, run: run, parent: s.id},
			parparaw.StreamConfig{PartitionSize: ingestPartition, Bus: parparaw.NewBus(instantBus)})
		s.end()
		if err != nil {
			return st, fmt.Errorf("%s replay: %w", b.dialect.name, err)
		}
		s = t.start(run, root.id, "combine")
		table, err := sres.Combined()
		s.end()
		if err != nil {
			return st, err
		}
		if jb.csv {
			hw := newHashingWriter()
			s = t.start(run, root.id, "emit")
			err = parparaw.WriteCSV(hw, table)
			s.end()
			if err != nil {
				return st, err
			}
			st.csvBytes += hw.n
			if hw.sum() != b.csvSHA {
				res.fail("%s replay: output=csv digest differs from the reference", b.dialect.name)
			}
		} else {
			s = t.start(run, root.id, "summary")
			_, err = json.Marshal(parparaw.IngestSummary{Rows: int64(table.NumRows()), Columns: table.NumColumns(),
				Header: sres.Header, Partitions: sres.Stats.Partitions, InputBytes: sres.Stats.InputBytes,
				DurationNs: int64(sres.Stats.Duration), DeviceBytes: sres.Stats.DeviceBytes})
			s.end()
			if err != nil {
				return st, err
			}
		}
		root.end()
		if table.NumRows() != b.records || table.NumColumns() != b.dialect.columns {
			res.fail("%s replay: %d rows x %d columns, generated %d records x %d columns",
				b.dialect.name, table.NumRows(), table.NumColumns(), b.records, b.dialect.columns)
		}

		ss := sres.Stats
		st.ring.Partitions += ss.Partitions
		st.ring.InFlight = max(st.ring.InFlight, ss.InFlight)
		st.ring.SerialFallbacks += ss.SerialFallbacks
		st.ring.MaxCarryOver = max(st.ring.MaxCarryOver, ss.MaxCarryOver)
		st.ring.ReadBusy += ss.ReadBusy
		st.ring.BoundaryBusy += ss.BoundaryBusy
		st.ring.ParseBusy += ss.ParseBusy
		st.ring.EmitBusy += ss.EmitBusy
		if ss.BoundaryBusy > 0 {
			st.prescanned += ss.InputBytes
		}
		st.deviceBytesPerByte = max(st.deviceBytesPerByte, float64(ss.DeviceBytes)/float64(ss.InputBytes))

		if t != nil {
			s = t.start(run, 0, "execute")
			r, err := e.Parse(b.data)
			s.end()
			if err != nil {
				return st, err
			}
			st.executed += int64(len(b.data))
			for p, d := range r.Stats.Phases {
				st.phases[p] += d
			}
		}
	}
	return st, nil
}

// traceIngest replays one period of the job sequence, once untraced
// for the wall and once traced, and reports the per-layer metrics.
func traceIngest(cfg config, res *result, srv *parparaw.Server, mix *ingestMix, t *tracer) error {
	start := time.Now()
	if _, err := replayJobs(res, srv, mix, nil, 0); err != nil {
		return err
	}
	res.metrics["untraced.wall_s"] = time.Since(start).Seconds()

	runBase := 1 << 30 // above every request id of the traffic
	st, err := replayJobs(res, srv, mix, t, runBase)
	if err != nil {
		return err
	}
	putRingStats(res, st.ring)
	var wall, self time.Duration
	for run := runBase; run < runBase+mix.period(); run++ {
		selfT := t.selfTimes(run)
		self += selfT["job"]
		wall += t.total(run, "job")
	}
	res.metrics["traced.wall_s"] = wall.Seconds()
	res.metrics["trace.coverage"] = 1 - self.Seconds()/wall.Seconds()
	res.metrics["read.busy_s"] = t.total(-1, "read").Seconds()
	res.metrics["prescan.busy_s"] = st.ring.BoundaryBusy.Seconds()
	res.metrics["prescan.mb_s"] = rate(st.prescanned, st.ring.BoundaryBusy)
	res.metrics["execute.busy_s"] = t.total(-1, "execute").Seconds()
	res.metrics["execute.mb_s"] = rate(st.executed, t.total(-1, "execute"))
	putPhases(res, st.phases)
	res.metrics["device_bytes_per_byte"] = st.deviceBytesPerByte
	res.metrics["combine.busy_s"] = t.total(-1, "combine").Seconds()
	res.metrics["emit.busy_s"] = t.total(-1, "emit").Seconds()
	res.metrics["emit.out_mb_s"] = rate(st.csvBytes, t.total(-1, "emit"))
	var lookups []float64
	for _, d := range t.durations(-1, "cache") {
		lookups = append(lookups, d.Seconds()*1e6)
	}
	res.metrics["cache.lookup_us"] = median(lookups)
	res.record["replayed_jobs"] = mix.period()
	res.notes = append(res.notes,
		"traced.wall_s sums the replayed jobs' spans; untraced.wall_s is the same replay without spans, and both exclude the buffered Engine.Parse that supplies execute.* and phase.*")
	spanFile, err := t.write(cfg.out, res.workload, cfg.seed)
	if err != nil {
		return err
	}
	res.record["span_file"] = spanFile
	return nil
}
