package parparaw

// Tag-path parity: the data-run tag and partition phases and the
// paper's per-symbol tags with a counting scatter must lay out the same
// CSS, so every output is byte-identical whichever path an execution
// takes. The production path tags data runs; reference.perSymbolTags
// forces the per-symbol path. Run with -race: the streaming legs drive
// the ring.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// tagParityVariants returns the option sets the tag paths are compared
// under, derived from a plain parse's schema: projection with skipped
// records and a header, and a pushed-down Where over a schema that
// forces malformed fields, both rejecting inconsistent and malformed
// records.
func tagParityVariants(base Options, schema *Schema) map[string]Options {
	cols := schema.NumColumns()
	variants := map[string]Options{"plain": base}

	sel := base
	sel.SelectColumns = []int{cols - 1, 0}
	if cols == 1 {
		sel.SelectColumns = []int{0}
	}
	sel.SkipRecords = []int64{0, 2, 5}
	sel.HasHeader = true
	sel.RejectInconsistent = true
	sel.RejectMalformed = true
	variants["select-skip-header"] = sel

	fields := make([]Field, cols)
	for i, f := range schema.Fields {
		fields[i] = Field{Name: f.Name, Type: Int64}
	}
	where := base
	where.Schema = NewSchema(fields...)
	where.Scan.Where = []Predicate{NotNull(0)}
	where.RejectInconsistent = true
	where.RejectMalformed = true
	variants["where-reject"] = where
	return variants
}

// badRecordLog collects OnBadRecord reports, which may arrive
// concurrently and out of order under the ring.
type badRecordLog struct {
	mu   sync.Mutex
	recs []string
}

func (l *badRecordLog) add(r BadRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, fmt.Sprintf("%d/%d@%d:%q", r.Partition, r.Row, r.Offset, r.Raw))
}

func (l *badRecordLog) sorted() []string {
	sort.Strings(l.recs)
	return l.recs
}

// TestTagPathParity compares the two tag paths on every dialect preset
// and its damaged copies, at every chunk size and tagging mode, under
// projection, skipped records, a header, pushed-down Where, and both
// reject policies: identical Parse results and errors, and identical
// streams at depth 1 and deeper, including the bad-record reports.
func TestTagPathParity(t *testing.T) {
	var cov tagParityCoverage
	inputs := contextParityInputs()
	rng := rand.New(rand.NewSource(14))
	inputs["csv-ragged"] = genRagged(rng, 200, ',')
	inputs["tsv-ragged"] = genRagged(rng, 200, '\t')
	for name, input := range inputs {
		dialect := name
		if i := bytes.IndexByte([]byte(name), '-'); i > 0 {
			dialect = name[:i]
		}
		format := contextParityFormat(t, dialect)
		plain, err := Parse(input, Options{Format: format})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plain.Table.NumColumns() == 0 {
			continue
		}
		for _, chunk := range []int{1, 31, 64} {
			for _, mode := range []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited} {
				base := Options{Format: format, ChunkSize: chunk, Mode: mode}
				for vname, runs := range tagParityVariants(base, plain.Table.Schema()) {
					label := fmt.Sprintf("%s/chunk=%d/%v/%s", name, chunk, mode, vname)
					ref := runs
					ref.reference.perSymbolTags = true
					if !assertTagParse(t, label, input, runs, ref, &cov) || !format.Streamable() {
						continue
					}
					for _, inFlight := range []int{1, 2} {
						slabel := fmt.Sprintf("%s/inflight=%d", label, inFlight)
						assertTagStream(t, slabel, input, runs, ref, inFlight, &cov)
					}
				}
			}
		}
	}
	// The comparisons above must not be vacuous: every tagging mode
	// parsed, and rows were pruned, rejected and reported somewhere.
	if cov.modes != 3 || cov.pruned == 0 || cov.rejected == 0 || cov.reported == 0 {
		t.Fatalf("parity coverage too thin: %+v", cov)
	}
}

// genRagged returns records of one to six short fields, some quoted
// (csv) and some empty, so column counts vary from record to record.
func genRagged(rng *rand.Rand, records int, delim byte) []byte {
	var b bytes.Buffer
	for r := 0; r < records; r++ {
		for c := 1 + rng.Intn(6); c > 0; c-- {
			switch rng.Intn(4) {
			case 0: // empty
			case 1:
				if delim == ',' {
					b.WriteString(`"q,` + fmt.Sprint(rng.Intn(99)) + `"`)
					break
				}
				fallthrough
			default:
				b.WriteString(fmt.Sprint(rng.Intn(1000)))
			}
			if c > 1 {
				b.WriteByte(delim)
			}
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// tagParityCoverage counts what the parity comparisons exercised.
type tagParityCoverage struct {
	modes                      int // tagging modes with a successful parse
	seen                       [3]bool
	pruned, rejected, reported int64
}

// assertTagParse compares one Parse on both tag paths and reports
// whether it succeeded.
func assertTagParse(t *testing.T, label string, input []byte, runs, ref Options, cov *tagParityCoverage) bool {
	t.Helper()
	a, errA := Parse(input, runs)
	b, errB := Parse(input, ref)
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		t.Fatalf("%s: runs err %v, per-symbol err %v", label, errA, errB)
	}
	if errA != nil {
		return false
	}
	assertTablesIdentical(t, label, a.Table, b.Table)
	sa, sb := a.Stats, b.Stats
	if sa.BytesSkipped != sb.BytesSkipped || sa.RowsPruned != sb.RowsPruned ||
		sa.Records != sb.Records || sa.InvalidInput != sb.InvalidInput {
		t.Fatalf("%s: stats differ: runs %+v, per-symbol %+v", label, sa, sb)
	}
	if !cov.seen[runs.Mode] {
		cov.seen[runs.Mode] = true
		cov.modes++
	}
	cov.pruned += sa.RowsPruned
	cov.rejected += int64(a.Table.RejectedCount())
	return true
}

// assertTagStream compares one Stream on both tag paths: per-partition
// tables, pushdown counters, and the bad-record reports.
func assertTagStream(t *testing.T, label string, input []byte, runs, ref Options, inFlight int, cov *tagParityCoverage) {
	t.Helper()
	stream := func(opts Options) (*StreamResult, []string, error) {
		var log badRecordLog
		opts.InFlight = inFlight
		res, err := Stream(input, StreamOptions{Options: opts, PartitionSize: 1021, OnBadRecord: log.add})
		return res, log.sorted(), err
	}
	got, gotBad, errA := stream(runs)
	want, wantBad, errB := stream(ref)
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		t.Fatalf("%s: runs err %v, per-symbol err %v", label, errA, errB)
	}
	if errA != nil {
		return
	}
	assertStreamsIdentical(t, label, got, want)
	gs, ws := got.Stats, want.Stats
	if gs.BytesSkipped != ws.BytesSkipped || gs.RowsPruned != ws.RowsPruned {
		t.Fatalf("%s: stream stats differ: runs %+v, per-symbol %+v", label, gs, ws)
	}
	if fmt.Sprint(gotBad) != fmt.Sprint(wantBad) {
		t.Fatalf("%s: bad records differ:\nruns       %v\nper-symbol %v", label, gotBad, wantBad)
	}
	cov.reported += int64(len(gotBad))
}
