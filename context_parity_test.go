package parparaw

// Context-path parity: the sequential walk and the paper's multi-DFA
// parse (context pass, bitmap emission, offset scans) must yield the
// same bitmaps and offsets, so every output is byte-identical whichever
// path an execution takes. The production path takes the walk;
// reference.multiDFA forces the multi-DFA parse. Run with -race: the
// streaming legs drive the ring.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// contextParityInputs returns one valid input per dialect preset plus
// two damaged copies: one with stray structural bytes spliced into the
// middle (the invalid sink for csv and jsonl) and one ending inside an
// open quote or escape (a non-accepting end state).
func contextParityInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(13))
	valid := map[string][]byte{
		"csv":    workload.Yelp().Generate(24<<10, 5),
		"tsv":    genEscaped(rng, 120, 5, TSV{}),
		"psv":    genEscaped(rng, 120, 5, TSV{Delimiter: '|'}),
		"jsonl":  genJSONL(rng, 80, 4),
		"weblog": genWeblog(rng, 120, 6),
	}
	inputs := make(map[string][]byte)
	for name, in := range valid {
		inputs[name] = in
		half := len(in) / 2
		inputs[name+"-spliced"] = append(append(append([]byte(nil), in[:half]...), `"x"\{`...), in[half:]...)
		inputs[name+"-open"] = append(append([]byte(nil), in...), `"\`...)
	}
	return inputs
}

func contextParityFormat(t *testing.T, name string) *Format {
	t.Helper()
	f, err := FormatByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestContextPathParity compares the two context paths on every dialect
// preset, on Parse and on streams at depth 1 and deeper:
// identical tables, chunk counts and invalid-input flags, and under
// Validate identical failures.
func TestContextPathParity(t *testing.T) {
	for name, input := range contextParityInputs() {
		dialect := name
		if i := bytes.IndexByte([]byte(name), '-'); i > 0 {
			dialect = name[:i]
		}
		for _, chunk := range []int{1, 31, 64} {
			label := fmt.Sprintf("%s/chunk=%d", name, chunk)
			seq := Options{Format: contextParityFormat(t, dialect), ChunkSize: chunk}
			multi := seq
			multi.reference.multiDFA = true

			a, errA := Parse(input, seq)
			b, errB := Parse(input, multi)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: sequential err %v, multi-DFA err %v", label, errA, errB)
			}
			if errA != nil {
				continue
			}
			assertTablesIdentical(t, label, a.Table, b.Table)
			if a.Stats.Chunks != b.Stats.Chunks || a.Stats.InvalidInput != b.Stats.InvalidInput ||
				a.Stats.MinColumns != b.Stats.MinColumns || a.Stats.MaxColumns != b.Stats.MaxColumns {
				t.Fatalf("%s: stats differ: sequential %+v, multi-DFA %+v", label, a.Stats, b.Stats)
			}

			seq.Validate, multi.Validate = true, true
			_, errA = Parse(input, seq)
			_, errB = Parse(input, multi)
			if fmt.Sprint(errA) != fmt.Sprint(errB) {
				t.Fatalf("%s: validate: sequential err %v, multi-DFA err %v", label, errA, errB)
			}
			seq.Validate, multi.Validate = false, false

			if !seq.Format.Streamable() {
				continue
			}
			seq.Schema, multi.Schema = a.Table.Schema(), a.Table.Schema()
			for _, inFlight := range []int{1, 2} {
				slabel := fmt.Sprintf("%s/inflight=%d", label, inFlight)
				got := streamInFlight(t, slabel, input, seq, 1021, inFlight, false)
				want := streamInFlight(t, slabel, input, multi, 1021, inFlight, false)
				assertStreamsIdentical(t, slabel, got, want)
			}
		}
	}
}
