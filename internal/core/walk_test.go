package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/offsets"
	"repro/internal/workload"
)

// walkTestDialects returns the five dialect machines and, per dialect,
// one valid input plus a spliced copy (stray structural bytes in the
// middle: the invalid sink for csv and jsonl), an open copy (ending
// inside an open quote or escape), a ragged input where the dialect
// has a field delimiter, and inputs whose long quoted or bracketed runs
// put chunk boundaries inside skip-ahead runs.
func walkTestDialects() map[string]struct {
	m      *dfa.Machine
	inputs map[string][]byte
} {
	taxi := workload.Taxi().Generate(12<<10, 5)
	yelp := workload.Yelp().Generate(12<<10, 5)
	run := strings.Repeat("lorem ipsum dolor ", 12)
	type dialect = struct {
		m      *dfa.Machine
		inputs map[string][]byte
	}
	out := map[string]dialect{
		"csv": {dfa.RFC4180(), map[string][]byte{
			"yelp": yelp,
			"runs": []byte(`"` + run + `",x` + "\n" + `y,"` + run + `"` + "\n" + run + "," + run + "\n" + run),
		}},
		"tsv": {dfa.MustEscaped(dfa.EscapedOptions{}), map[string][]byte{
			"taxi": bytes.ReplaceAll(taxi, []byte(","), []byte("\t")),
			"runs": []byte(run + "\\\t" + run + "\t" + run + "\n" + run + "\\"),
		}},
		"psv": {dfa.MustEscaped(dfa.EscapedOptions{FieldDelim: '|'}), map[string][]byte{
			"yelp": bytes.ReplaceAll(yelp, []byte(","), []byte("|")),
		}},
		"jsonl": {dfa.MustJSONL(dfa.JSONLOptions{}), map[string][]byte{
			"events": workload.JSONLines().Generate(12<<10, 5),
			"runs":   []byte(`{"k":"` + run + `","n":[1,2,{"a":"` + run + `"}]}` + "\n"),
		}},
		"weblog": {dfa.Weblog(), map[string][]byte{
			"log":  workload.Weblog().Generate(12<<10, 5),
			"runs": []byte(`1.2.3.4 - "` + run + `" 200` + "\n"),
		}},
	}
	rng := rand.New(rand.NewSource(15))
	for name, d := range out {
		for _, label := range slices.Sorted(maps.Keys(d.inputs)) {
			in := d.inputs[label]
			half := len(in) / 2
			d.inputs[label+"-spliced"] = append(append(append([]byte(nil), in[:half]...), `"x"\{`...), in[half:]...)
			d.inputs[label+"-open"] = append(append([]byte(nil), in...), `"\`...)
		}
		if delim := map[string]byte{"csv": ',', "tsv": '\t', "psv": '|'}[name]; delim != 0 {
			d.inputs["ragged"] = walkRagged(rng, 150, delim)
		}
		// A record delimiter on the last byte, alone in its chunk at
		// chunk sizes 31 and 64.
		for _, n := range []int{32, 63, 65} {
			in := bytes.Repeat([]byte("x,"), n/2)
			d.inputs[fmt.Sprintf("last-%d", n)] = append(in[:n-1], '\n')
		}
	}
	return out
}

// walkRagged returns rows of 1-6 fields, some empty, separated by delim.
func walkRagged(rng *rand.Rand, rows int, delim byte) []byte {
	var b bytes.Buffer
	for r := 0; r < rows; r++ {
		for f, n := 0, 1+rng.Intn(6); f < n; f++ {
			if f > 0 {
				b.WriteByte(delim)
			}
			b.WriteString(strings.Repeat("v", rng.Intn(9)))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// parseToOffsets runs a pipeline's stages up to, not including,
// filterRows: the parse and offset resolution whose outputs the
// remaining stages consume.
func parseToOffsets(o Options, input []byte, multiDFA bool) (*pipeline, error) {
	p := &pipeline{Options: o, input: input, multiDFA: multiDFA}
	for _, st := range pipelineStages(multiDFA) {
		if st.name == "filterRows" {
			break
		}
		if err := st.run(p); err != nil {
			return p, err
		}
	}
	return p, nil
}

// offsetOpts resolves opts for parseToOffsets with a fresh arena.
func offsetOpts(opts Options) Options {
	o := opts.withDefaults()
	o.Arena = device.NewArena()
	return o
}

// TestEmitWalkMatchesMultiDFA checks the sequential walk against the
// paper's multi-DFA pipeline (context pass, bitmap emission, offset
// scans) stage for stage: the three bitmaps, every chunk's record and
// column offsets, the column total, the record count, the observed
// column range, the remainder and the end state, on every dialect and
// its damaged and ragged copies, at chunk sizes 1, 31 and 64, in both
// trailing modes, with the walk on the fused tables with and without
// skip-ahead and on the split tables. The end state and remainder must
// also match the streaming pre-scan's boundary walk.
func TestEmitWalkMatchesMultiDFA(t *testing.T) {
	dev := device.New(device.Config{Workers: 2})
	for name, d := range walkTestDialects() {
		for label, in := range d.inputs {
			preRem, preEnd := d.m.RecordRemainder(in)
			for _, cs := range []int{1, 31, 64} {
				for _, trailing := range []TrailingMode{TrailingRecord, TrailingRemainder} {
					base := Options{Machine: d.m, Device: dev, ChunkSize: cs, Trailing: trailing}
					want, wantErr := parseToOffsets(offsetOpts(base), in, true)
					refs := map[string]Options{"fused": base}
					split, noSkip := base, base
					split.SplitTables = true
					noSkip.NoSkipAhead = true
					refs["split"], refs["no-skip"] = split, noSkip
					for ref, opts := range refs {
						tag := fmt.Sprintf("%s/%s/chunk=%d/trailing=%d/%s", name, label, cs, trailing, ref)
						got, err := parseToOffsets(offsetOpts(opts), in, false)
						if fmt.Sprint(err) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: walk err %v, multi-DFA err %v", tag, err, wantErr)
						}
						if err != nil {
							continue
						}
						compareWalk(t, tag, got, want)
						if got.endState != preEnd {
							t.Fatalf("%s: walk ends in %d, pre-scan in %d", tag, got.endState, preEnd)
						}
						if trailing == TrailingRemainder && got.remainder != preRem {
							t.Fatalf("%s: walk remainder %d, pre-scan %d", tag, got.remainder, preRem)
						}
					}
				}
			}
		}
	}
}

func compareWalk(t *testing.T, tag string, got, want *pipeline) {
	t.Helper()
	n := len(got.input)
	for _, bm := range []struct {
		name      string
		got, want *bitmap.Bitmap
	}{
		{"record", got.bitmaps.record, want.bitmaps.record},
		{"field", got.bitmaps.field, want.bitmaps.field},
		{"control", got.bitmaps.control, want.bitmaps.control},
	} {
		for w := 0; w < bitmap.WordsFor(n); w++ {
			if g, x := bm.got.Word(w), bm.want.Word(w); g != x {
				t.Fatalf("%s: %s bitmap word %d = %#x, multi-DFA %#x", tag, bm.name, w, g, x)
			}
		}
	}
	if !slices.Equal(got.recBase, want.recBase) {
		t.Fatalf("%s: recBase %v, multi-DFA %v", tag, got.recBase, want.recBase)
	}
	if !slices.Equal(got.colBase, want.colBase) {
		t.Fatalf("%s: colBase %v, multi-DFA %v", tag, got.colBase, want.colBase)
	}
	type scalars struct {
		colTotal          offsets.ColumnOffset
		records           int64
		minCols, maxCols  int
		remainder         int
		end               uint8
		trailing, invalid bool
	}
	summary := func(p *pipeline) scalars {
		return scalars{p.colTotal, p.numRecords, p.stats.MinColumns, p.stats.MaxColumns,
			p.remainder, p.endState, p.trailing, p.stats.InvalidInput}
	}
	if g, w := summary(got), summary(want); g != w {
		t.Fatalf("%s: walk %+v, multi-DFA %+v", tag, g, w)
	}
}
