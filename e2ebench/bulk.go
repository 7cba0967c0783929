package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	parparaw "repro"
	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/workload"
)

// NewEngine takes well under a microsecond, about what reading the
// clock costs here, so set-up is timed in batches: setup_s is the
// median over setupBatches of the mean NewEngine time of a batch.
const setupBatches, setupBatchSize = 21, 200

// setupEngine times NewEngine before anything else runs, so no input
// generation or freed heap perturbs it; the first batch is an untimed
// warm-up. It returns the last engine and setup_s.
func setupEngine() (*parparaw.Engine, float64, error) {
	setups := make([]float64, setupBatches+1)
	var eng *parparaw.Engine
	var err error
	for i := range setups {
		start := time.Now()
		for k := 0; k < setupBatchSize; k++ {
			if eng, err = parparaw.NewEngine(parparaw.Options{}); err != nil {
				return nil, 0, err
			}
		}
		setups[i] = time.Since(start).Seconds() / setupBatchSize
	}
	return eng, median(setups[1:]), nil
}

// bulkWarmups is how many untimed calls precede the timed ones.
const bulkWarmups = 2

// tracedRouteCalls is how many route calls a traced bulk run makes
// before its replay; per-call metrics are their means.
const tracedRouteCalls = 3

// minBulkCalls is the fewest timed route calls a bulk run makes,
// whatever --seconds says.
const minBulkCalls = 3

// bulkWorkload is a file-to-table route over one generated dataset.
type bulkWorkload struct {
	name    string
	spec    workload.Spec
	columns int
	// route runs the workload's entry point over r.
	route func(e *parparaw.Engine, r io.Reader) (routeOut, error)
	// streamed reports whether the route cuts an input of size bytes
	// into partitions (otherwise it parses the input whole).
	streamed func(size int64) bool
}

// routeOut is what one route call returns.
type routeOut struct {
	tables      []*parparaw.Table
	invalid     bool
	deviceBytes int64
	stream      *parparaw.StreamStats // nil when the route drops them
}

// taxiBulk is `parparaw file.csv`: Engine.ParseReader with zero Options,
// which streams inputs above ReaderStreamThreshold and combines the
// partition tables into one.
var taxiBulk = bulkWorkload{
	name:    "bulk-taxi",
	spec:    workload.Taxi(),
	columns: 17,
	route: func(e *parparaw.Engine, r io.Reader) (routeOut, error) {
		res, err := e.ParseReader(r)
		if err != nil {
			return routeOut{}, err
		}
		return routeOut{tables: []*parparaw.Table{res.Table}, invalid: res.Stats.InvalidInput,
			deviceBytes: res.Stats.DeviceBytes}, nil
	},
	streamed: func(size int64) bool { return size > int64(parparaw.ReaderStreamThreshold) },
}

// yelpBulk is `parparaw -stream file.csv`: Engine.StreamReader with the
// zero StreamConfig, default simulated bus included. The partition
// tables are consumed (counted and checked) and then dropped.
var yelpBulk = bulkWorkload{
	name:    "bulk-yelp",
	spec:    workload.Yelp(),
	columns: 9,
	route: func(e *parparaw.Engine, r io.Reader) (routeOut, error) {
		res, err := e.StreamReader(r, parparaw.StreamConfig{})
		if err != nil {
			return routeOut{}, err
		}
		st := res.Stats
		return routeOut{tables: res.Tables, invalid: st.InvalidInput, deviceBytes: st.DeviceBytes, stream: &st}, nil
	},
	streamed: func(int64) bool { return true },
}

// writeBulkInput generates the workload's records from the seed and
// writes them to a file: just over cfg.bulkBytes, so a 64 MiB target
// crosses ReaderStreamThreshold by less than one record.
func writeBulkInput(cfg config, w bulkWorkload) (path string, records int, size int64, err error) {
	data := w.spec.Generate(cfg.bulkBytes+1, cfg.seed)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", 0, 0, err
	}
	path = filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.csv", w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, 0, err
	}
	defer f.Close()
	// Sync, so the kernel's write-back of the file is over before
	// anything is timed.
	if _, err := f.Write(data); err != nil {
		return "", 0, 0, err
	}
	if err := f.Sync(); err != nil {
		return "", 0, 0, err
	}
	return path, countRecords(data), int64(len(data)), f.Close()
}

// countRecords counts the records of generated RFC 4180 CSV, which
// always ends in a record delimiter: newlines outside quotes. It is the
// benchmark's own oracle for the row count, independent of the parser.
func countRecords(data []byte) int {
	n, quoted := 0, false
	for _, b := range data {
		switch b {
		case '"':
			quoted = !quoted
		case '\n':
			if !quoted {
				n++
			}
		}
	}
	return n
}

// callRoute opens the input and times one route call.
func callRoute(e *parparaw.Engine, w bulkWorkload, path string, wrap func(io.Reader) io.Reader) (routeOut, time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return routeOut{}, 0, err
	}
	defer f.Close()
	var r io.Reader = f
	if wrap != nil {
		r = wrap(f)
	}
	start := time.Now()
	out, err := w.route(e, r)
	return out, time.Since(start), err
}

// check validates one route call's output against the generated input.
func (w bulkWorkload) check(res *result, out routeOut, records int) {
	rows, badColumns := 0, 0
	for _, t := range out.tables {
		rows += t.NumRows()
		if t.NumColumns() != w.columns {
			badColumns++
		}
	}
	switch {
	case rows != records:
		res.fail("%s: %d rows, generated %d records", w.name, rows, records)
	case badColumns > 0:
		res.fail("%s: %d tables without %d columns", w.name, badColumns, w.columns)
	case out.invalid:
		res.fail("%s: InvalidInput set", w.name)
	}
}

func runBulk(cfg config, w bulkWorkload) (*result, error) {
	res := newResult(w.name, cfg)
	eng, setup, err := setupEngine()
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setup
	path, records, size, err := writeBulkInput(cfg, w)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	res.record["input_bytes"] = size
	res.record["records"] = records
	settle()

	if cfg.trace {
		return res, traceBulk(cfg, w, res, eng, path, records, size)
	}

	if err := warmUp(res, eng, w, path, records); err != nil {
		return nil, err
	}
	var lat []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for calls := 0; calls < minBulkCalls || time.Now().Before(deadline); calls++ {
		res.attempted++
		out, d, err := callRoute(eng, w, path, nil)
		if err != nil {
			res.fail("%s: %v", w.name, err)
			continue
		}
		w.check(res, out, records)
		lat = append(lat, d.Seconds())
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("every timed call failed: %v", res.notes)
	}
	var busy float64
	for _, l := range lat {
		busy += l
	}
	res.metrics["throughput_mb_s"] = float64(size) * float64(len(lat)) / 1e6 / busy
	res.metrics["latency_p50_ms"] = median(lat) * 1e3
	res.metrics["latency_p90_ms"] = quantile(lat, 0.9) * 1e3
	res.metrics["peak_rss_mb"] = peakRSSMB()
	res.metrics["retained_mb"] = liveHeapMB()
	runtime.KeepAlive(eng)
	res.metrics["failed_share"] = float64(res.failed) / float64(res.attempted)
	calls := make([]string, len(lat))
	for i, l := range lat {
		calls[i] = fmt.Sprintf("%.0f", l*1e3)
	}
	res.record["call_ms"] = calls
	return res, nil
}

// warmUp makes the untimed first calls, which fill the engine's arena
// pool: a long-lived engine pays that once. They are checked all the
// same.
func warmUp(res *result, eng *parparaw.Engine, w bulkWorkload, path string, records int) error {
	for i := 0; i < bulkWarmups; i++ {
		res.attempted++
		out, _, err := callRoute(eng, w, path, nil)
		if err != nil {
			return err
		}
		w.check(res, out, records)
	}
	return nil
}

// timedReader records a span around every Read of the reader it wraps.
type timedReader struct {
	r           io.Reader
	t           *tracer
	run, parent int
}

func (tr *timedReader) Read(p []byte) (int, error) {
	s := tr.t.start(tr.run, tr.parent, "read")
	n, err := tr.r.Read(p)
	s.end()
	return n, err
}

// traceBulk is the bulk workloads' traced run. After the warm-up it
// calls the route, with only a timing reader wrapper, for the program's
// own statistics and the reference table digest, then replays serially,
// at the core level, the partitions the route cuts, with spans around
// each layer call.
func traceBulk(cfg config, w bulkWorkload, res *result, eng *parparaw.Engine, path string,
	records int, size int64) error {
	t := newTracer()
	const routeRun, replayRun = 1, 2

	if err := warmUp(res, eng, w, path, records); err != nil {
		return err
	}
	// The route's own statistics, and the runtime counters, are taken
	// over a few calls: one call often ends no GC cycle at all.
	before := readCounters()
	var out routeOut
	var wall time.Duration
	for i := 0; i < tracedRouteCalls; i++ {
		res.attempted++
		root := t.start(routeRun, 0, "route")
		o, d, err := callRoute(eng, w, path, func(r io.Reader) io.Reader {
			return &timedReader{r: r, t: t, run: routeRun, parent: root.id}
		})
		root.end()
		if err != nil {
			return err
		}
		w.check(res, o, records)
		out, wall = o, wall+d
	}
	after := readCounters()
	calls := float64(tracedRouteCalls)
	res.metrics["untraced.wall_s"] = wall.Seconds() / calls
	res.metrics["read.busy_s"] = t.total(routeRun, "read").Seconds() / calls
	res.metrics["device_bytes_per_byte"] = float64(out.deviceBytes) / float64(size)
	res.metrics["alloc_bytes_per_byte"] = float64(after.alloc-before.alloc) / float64(size) / calls
	res.metrics["gc.cpu_s"] = (after.gc - before.gc) / calls
	res.metrics["sys.cpu_s"] = (after.sys - before.sys).Seconds() / calls
	if st := out.stream; st != nil {
		putRingStats(res, *st)
	} else {
		for _, m := range ringMetrics {
			res.absent[m] = "ParseReader drops the streaming statistics (streamedResult)"
		}
	}
	for _, m := range serverMetrics {
		res.absent[m] = "the bulk routes run no server"
	}
	res.metrics["emit.busy_s"] = 0
	res.metrics["emit.out_mb_s"] = 0
	res.metrics["admission.rejects"] = 0
	var routeDigest digest
	for _, tb := range out.tables {
		routeDigest.addPublic(tb)
	}
	want, err := routeDigest.sum()
	if err != nil {
		return err
	}
	out = routeOut{}

	// Drain the engine's arena pool before the replay, so the two
	// footprints never add up.
	eng.Close()
	settle()

	res.attempted++
	rep, err := replay(t, replayRun, w, path, size)
	if err != nil {
		return err
	}
	if rep.rows != records {
		res.fail("%s replay: %d rows, generated %d records", w.name, rep.rows, records)
	}
	if rep.digest != want {
		res.fail("%s replay: table digest %s differs from the route's %s", w.name, rep.digest, want)
	}
	self := t.selfTimes(replayRun)
	wallR := t.total(replayRun, "replay")
	res.metrics["traced.wall_s"] = wallR.Seconds()
	cov := 1 - self["replay"].Seconds()/wallR.Seconds()
	res.metrics["trace.coverage"] = cov
	if cov < 0.9 {
		res.fail("%s replay: layer self-times cover %.3f of the traced wall, want >= 0.9", w.name, cov)
	}
	res.metrics["prescan.busy_s"] = t.total(replayRun, "prescan").Seconds()
	res.metrics["prescan.mb_s"] = rate(rep.prescanned, t.total(replayRun, "prescan"))
	res.metrics["execute.busy_s"] = t.total(replayRun, "execute").Seconds()
	res.metrics["execute.mb_s"] = rate(size, t.total(replayRun, "execute"))
	res.metrics["combine.busy_s"] = t.total(replayRun, "combine").Seconds()
	putPhases(res, rep.phases)
	res.record["replay_partitions"] = rep.partitions
	gap := "traced.wall_s is the serial replay; the gap to untraced.wall_s includes the ring overlap the replay gives up"
	if w.name == "bulk-yelp" {
		gap += " and the simulated bus it skips"
	}
	res.notes = append(res.notes, fmt.Sprintf(
		"replay self-times: read %.3fs, prescan %.3fs, execute %.3fs, combine %.3fs, unattributed %.3fs of %.3fs",
		self["read"].Seconds(), self["prescan"].Seconds(), self["execute"].Seconds(), self["combine"].Seconds(),
		self["replay"].Seconds(), wallR.Seconds()), gap)
	spanFile, err := t.write(cfg.out, w.name, cfg.seed)
	if err != nil {
		return err
	}
	res.record["span_file"] = spanFile
	return nil
}

// rate is MB per second, or 0 when no time was spent.
func rate(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

var ringMetrics = []string{"ring.partitions", "ring.in_flight", "ring.serial_fallbacks", "ring.max_carry_bytes",
	"ring.read_busy_s", "ring.boundary_busy_s", "ring.parse_busy_s", "ring.emit_busy_s"}

var serverMetrics = []string{"server.handle_p50_ms", "server.handle_p90_ms", "http.overhead_p50_ms",
	"cache.lookup_us", "cache.hit_ratio", "server.retained_mb", "server.peak_rss_mb"}

func putRingStats(res *result, st parparaw.StreamStats) {
	res.metrics["ring.partitions"] = float64(st.Partitions)
	res.metrics["ring.in_flight"] = float64(st.InFlight)
	res.metrics["ring.serial_fallbacks"] = float64(st.SerialFallbacks)
	res.metrics["ring.max_carry_bytes"] = float64(st.MaxCarryOver)
	res.metrics["ring.read_busy_s"] = st.ReadBusy.Seconds()
	res.metrics["ring.boundary_busy_s"] = st.BoundaryBusy.Seconds()
	res.metrics["ring.parse_busy_s"] = st.ParseBusy.Seconds()
	res.metrics["ring.emit_busy_s"] = st.EmitBusy.Seconds()
}

// putPhases reports one metric per pipeline phase; a phase the program
// did not report ran for no time.
func putPhases(res *result, phases map[string]time.Duration) {
	for _, p := range core.PhaseNames {
		res.metrics["phase."+p+"_s"] = phases[p].Seconds()
	}
	for p := range phases {
		if _, ok := res.metrics["phase."+p+"_s"]; !ok {
			res.notes = append(res.notes, fmt.Sprintf("phase %s: %.4fs", p, phases[p].Seconds()))
		}
	}
}

type replayOut struct {
	rows, partitions int
	prescanned       int64
	phases           map[string]time.Duration
	digest           string
}

// replay cuts the input into the partitions the route cuts — carry
// tail plus fresh bytes filling the route's partition size, the first
// partition parsed on the serial carry path, every later non-final one
// pre-scanned for its boundary when the route runs the ring, the final
// one parsed to its last record — and parses them one after another through core.Compile,
// Plan.ScanRemainder and Plan.Execute with the route's options and
// per-partition convert workers, then concatenates the tables.
func replay(t *tracer, run int, w bulkWorkload, path string, size int64) (replayOut, error) {
	out := replayOut{phases: make(map[string]time.Duration)}
	root := t.start(run, 0, "replay")
	defer root.end()

	// Zero public Options compile to zero core Options.
	plan, err := core.Compile(core.Options{})
	if err != nil {
		return out, err
	}
	opts := plan.Options()
	partSize := int(size)
	convertWorkers := 0
	// With more than one partition in flight the route runs the ring,
	// which pre-scans boundaries and divides the plan's convert workers
	// across the partitions in flight (engine.go StreamReaderContext);
	// with one it runs the serial pipeline, which does neither.
	ring := w.streamed(size) && opts.InFlight > 1
	if w.streamed(size) {
		partSize = parparaw.DefaultPartitionSize
	}
	if ring {
		if cw := opts.ConvertWorkers / opts.InFlight; cw < opts.ConvertWorkers {
			convertWorkers = max(cw, 1)
		}
	}

	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	src := &timedReader{r: f, t: t, run: run, parent: root.id}
	arena := device.NewArena()
	base := plan.BaseExec(arena)
	var (
		carry    []byte
		tables   []*columnar.Table
		schema   *columnar.Schema
		consumed int64
		offset   int64
	)
	for i := 0; ; i++ {
		need := partSize - len(carry)
		if need <= 0 {
			need = partSize
		}
		need = int(min(int64(need), size-consumed))
		buf := make([]byte, len(carry)+need)
		copy(buf, carry)
		n, err := io.ReadFull(src, buf[len(carry):])
		if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
			return out, err
		}
		buf = buf[:len(carry)+n]
		consumed += int64(n)
		final := consumed == size

		arena.Reset()
		exec := base
		exec.Trailing = core.TrailingRemainder
		if final {
			exec.Trailing = core.TrailingRecord
		}
		exec.Schema = schema
		exec.HasHeader = base.HasHeader && i == 0
		exec.ConvertWorkers = convertWorkers
		exec.Partition = i
		exec.BaseOffset = offset

		wantRem := -1
		if ring && i > 0 && !final {
			s := t.start(run, root.id, "prescan")
			wantRem = plan.ScanRemainder(buf)
			s.end()
			out.prescanned += int64(len(buf))
		}
		s := t.start(run, root.id, "execute")
		r, err := plan.Execute(buf, exec)
		s.end()
		if err != nil {
			return out, fmt.Errorf("replay partition %d: %w", i, err)
		}
		if wantRem >= 0 && r.Remainder != wantRem {
			return out, fmt.Errorf("replay partition %d: pre-scan remainder %d, parse remainder %d", i, wantRem, r.Remainder)
		}
		for p, d := range r.Stats.Phases {
			out.phases[p] += d
		}
		if schema == nil {
			schema = r.Table.Schema()
		}
		tables = append(tables, r.Table)
		out.partitions++
		if final {
			break
		}
		complete := len(buf) - r.Remainder
		offset += int64(complete)
		carry = append(carry[:0], buf[complete:]...)
	}
	s := t.start(run, root.id, "combine")
	combined, err := columnar.Concat(tables...)
	s.end()
	if err != nil {
		return out, err
	}
	root.end()
	var d digest
	d.addColumnar(combined)
	out.rows = combined.NumRows()
	out.digest, err = d.sum()
	return out, err
}
