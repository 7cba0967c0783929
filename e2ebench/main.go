// Command e2ebench is parparaw's end-to-end ingest benchmark. It runs
// one workload through the entry points users call and prints the
// end-to-end metrics, or, with --trace 1, a separate traced run that
// times each layer from outside through spans around the benchmark's
// own calls into the layer's public functions.
//
//	go build -o e2ebench . && ./e2ebench --workload bulk-taxi --seed 42 --seconds 30 --trace 0
//
// --workload all runs every workload in turn, each in a process of its
// own. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the lines before it name every metric with its unit, or
// name it absent with the reason. metrics.json describes each metric
// and workload.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

//go:embed metrics.json
var catalogJSON []byte

// metricSpec is the part of a metrics.json entry the program uses; the
// entries also name each metric's layer, what it should move, and how
// it is measured.
type metricSpec struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"` // end_to_end or per_layer
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	Contract bool   `json:"contract"` // reported by every workload; listed in BENCHMARK.json
}

type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	Metrics []metricSpec `json:"metrics"`
}

func loadCatalog() (catalog, error) {
	var c catalog
	err := json.Unmarshal(catalogJSON, &c)
	return c, err
}

// config is one invocation's settings. The sizes are fixed by the
// workload definitions; only the smoke test shrinks them.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for generated inputs, span files and records

	bulkBytes   int // target input size of the bulk workloads
	bodyBytes   int // target size of one ingest body
	minRequests int // ingest requests at least completed per run
	variants    int // distinct bodies per ingest dialect
}

func defaultConfig() config {
	return config{
		seed:        42,
		seconds:     30,
		out:         ".bench_build/e2ebench",
		bulkBytes:   64 << 20,
		bodyBytes:   1 << 20,
		minRequests: 200,
		variants:    5,
	}
}

// result is one workload run's outcome.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	absent    map[string]string // metric name -> reason
	notes     []string
	record    map[string]any // host and input facts stored with the result
}

func newResult(workload string, cfg config) *result {
	return &result{
		workload: workload,
		correct:  true,
		metrics:  make(map[string]float64),
		absent:   make(map[string]string),
		record: map[string]any{
			"workload":   workload,
			"seed":       cfg.seed,
			"trace":      cfg.trace,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"cpu_model":  cpuModel(),
			"go_version": runtime.Version(),
			"commit":     commit(),
		},
	}
}

// fail records an operation that failed or produced wrong output.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.correct = false
	if len(r.notes) < 20 {
		r.notes = append(r.notes, "FAILED: "+fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*result, error){
	"bulk-taxi":    func(cfg config) (*result, error) { return runBulk(cfg, taxiBulk) },
	"bulk-yelp":    func(cfg config) (*result, error) { return runBulk(cfg, yelpBulk) },
	"ingest-mixed": runIngest,
}

var workloadOrder = []string{"bulk-taxi", "bulk-yelp", "ingest-mixed"}

func main() {
	cfg := defaultConfig()
	workload := flag.String("workload", "all", "bulk-taxi, bulk-yelp, ingest-mixed or all")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.out, "out", cfg.out, "directory for generated inputs, span files and result records")
	flag.Parse()
	cfg.trace = *trace == 1
	var err error
	if *workload == "all" {
		err = runAll(os.Stdout, cfg)
	} else {
		err = run(os.Stdout, cfg, *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// run runs one workload and prints its report and result line.
func run(w io.Writer, cfg config, workload string) error {
	cat, err := loadCatalog()
	if err != nil {
		return fmt.Errorf("metrics.json: %w", err)
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s or all)", workload, strings.Join(workloadOrder, ", "))
	}
	res, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	printReport(w, cat, cfg, res)
	if err := writeRecord(cfg, res); err != nil {
		return err
	}
	return printResultLine(w, cat, cfg, res)
}

// runAll runs every workload in a process of its own, so the peak RSS,
// live heap and GC state of one never carry into the next. It passes
// their reports through and ends with one result line over all of
// them, each metric prefixed with its workload.
func runAll(w io.Writer, cfg config) error {
	all := resultLine{Correct: true, Metrics: make(map[string]metricValue)}
	for _, name := range workloadOrder {
		cmd := exec.Command(os.Args[0], "--workload", name, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", traceFlag(cfg), "--out", cfg.out)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		text := strings.TrimRight(string(out), "\n")
		i := strings.LastIndexByte(text, '\n')
		fmt.Fprintln(w, text[:i+1])
		var line resultLine
		if err := json.Unmarshal([]byte(text[i+1:]), &line); err != nil {
			return fmt.Errorf("%s: result line: %w", name, err)
		}
		all.Correct = all.Correct && line.Correct
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for m, v := range line.Metrics {
			all.Metrics[name+"/"+m] = v
		}
	}
	return printLine(w, all)
}

func traceFlag(cfg config) string {
	if cfg.trace {
		return "1"
	}
	return "0"
}

// kind is the metric kind a run reports.
func kind(cfg config) string {
	if cfg.trace {
		return "per_layer"
	}
	return "end_to_end"
}

// printReport names every metric of the run's kind with its unit, or
// names it absent with the reason, then the correctness verdict.
func printReport(w io.Writer, cat catalog, cfg config, r *result) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d)\n", r.workload, mode, cfg.seed)
	keys := make([]string, 0, len(r.record))
	for k := range r.record {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   record %s: %v\n", k, r.record[k])
	}
	for _, m := range cat.Metrics {
		if m.Kind != kind(cfg) {
			continue
		}
		if v, ok := r.metrics[m.Name]; ok {
			fmt.Fprintf(w, "   %-24s %14.6g %s\n", m.Name, v, m.Unit)
		} else if why, ok := r.absent[m.Name]; ok {
			fmt.Fprintf(w, "   %-24s absent: %s\n", m.Name, why)
		} else {
			fmt.Fprintf(w, "   %-24s absent: not reported (benchmark defect)\n", m.Name)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	verdict := "correct"
	if !r.correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "   verdict: %s (%d of %d operations failed)\n", verdict, r.failed, r.attempted)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResultLine prints the run's result line: the contract metrics
// of the run's kind.
func printResultLine(w io.Writer, cat catalog, cfg config, r *result) error {
	line := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue)}
	for _, m := range cat.Metrics {
		if m.Kind != kind(cfg) || !m.Contract {
			continue
		}
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: contract metric %s was not measured", r.workload, m.Name)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return printLine(w, line)
}

func printLine(w io.Writer, line resultLine) error {
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// writeRecord stores the run's record, metrics and absences as JSON
// next to its inputs.
func writeRecord(cfg config, r *result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"record": r.record, "correct": r.correct, "attempted": r.attempted, "failed": r.failed,
		"metrics": r.metrics, "absent": r.absent, "notes": r.notes,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "traced"
	}
	return os.WriteFile(fmt.Sprintf("%s/result-%s-%s-seed%d.json", cfg.out, r.workload, mode, cfg.seed), b, 0o644)
}
