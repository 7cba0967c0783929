package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/workload"
)

// tagFootprint returns the arena high-water mark of the tag and
// partition stages of one parse on a fresh arena.
func tagFootprint(input []byte, opts Options) (int64, error) {
	opts.Arena = device.NewArena()
	if _, err := Parse(input, opts); err != nil {
		return 0, err
	}
	return max(opts.Arena.PhasePeak("tagSymbols"), opts.Arena.PhasePeak("partitionScatter")), nil
}

// TestTagPathFootprint pins the compact run descriptor: the run path's
// tag and partition stages must peak below the per-symbol path's on
// 1 MiB of each dialect, and on the densest runs there are —
// one-byte fields and empty quoted fields — in every tagging mode the
// input admits.
func TestTagPathFootprint(t *testing.T) {
	const size = 1 << 20
	taxi := workload.Taxi().Generate(size, 1)
	yelp := workload.Yelp().Generate(size, 1)
	dense := bytes.Repeat([]byte("a,\"\",b,\"\",c\n"), size/12)
	cases := []struct {
		name  string
		m     *dfa.Machine
		input []byte
	}{
		{"csv-yelp", dfa.RFC4180(), yelp},
		{"tsv-taxi", dfa.MustEscaped(dfa.EscapedOptions{}), bytes.ReplaceAll(taxi, []byte(","), []byte("\t"))},
		{"psv-taxi", dfa.MustEscaped(dfa.EscapedOptions{FieldDelim: '|'}), bytes.ReplaceAll(taxi, []byte(","), []byte("|"))},
		{"jsonl", dfa.MustJSONL(dfa.JSONLOptions{}), workload.JSONLines().Generate(size, 1)},
		{"weblog", dfa.Weblog(), workload.Weblog().Generate(size, 1)},
		{"csv-dense", dfa.RFC4180(), dense},
		{"csv-one-byte", dfa.RFC4180(), []byte(strings.Repeat("a,b,c,d,e,f,g\n", size/14))},
	}
	for _, tc := range cases {
		for _, mode := range []css.Mode{css.RecordTagged, css.InlineTerminated, css.VectorDelimited} {
			label := fmt.Sprintf("%s/%v", tc.name, mode)
			opts := Options{Machine: tc.m, Mode: mode}
			runs, err := tagFootprint(tc.input, opts)
			if err != nil && mode != css.RecordTagged {
				continue // a ragged input in a delimited mode
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			opts.PerSymbolTags = true
			perSymbol, err := tagFootprint(tc.input, opts)
			if err != nil {
				t.Fatalf("%s: per-symbol: %v", label, err)
			}
			t.Logf("%s: runs %d B, per-symbol %d B", label, runs, perSymbol)
			// Strictly below: equal peaks would mean both options took
			// the same path.
			if runs >= perSymbol {
				t.Errorf("%s: run path peaks at %d B, per-symbol path at %d B", label, runs, perSymbol)
			}
		}
	}
}

// BenchmarkTagPath measures the two tag/partition paths, per dialect, on
// 4 MiB single-shot parses: the data-run path (tagRuns + scatterRuns)
// and the per-symbol reference (tagSymbols + the counting scatter).
// tag-ns and partition-ns are the two phases' device time per parse;
// device-bytes is the peak arena footprint.
//
//	go test -run '^$' -bench BenchmarkTagPath ./internal/core
func BenchmarkTagPath(b *testing.B) {
	const size = 4 << 20
	cases := []struct {
		name string
		m    *dfa.Machine
		spec workload.Spec
	}{
		{"taxi", dfa.RFC4180(), workload.Taxi()},
		{"yelp", dfa.RFC4180(), workload.Yelp()},
		{"jsonl", dfa.MustJSONL(dfa.JSONLOptions{}), workload.JSONLines()},
		{"weblog", dfa.Weblog(), workload.Weblog()},
	}
	for _, tc := range cases {
		input := tc.spec.Generate(size, 1)
		for _, perSymbol := range []bool{false, true} {
			name := tc.name + "/runs"
			if perSymbol {
				name = tc.name + "/per-symbol"
			}
			b.Run(name, func(b *testing.B) {
				arena := device.NewArena()
				opts := Options{Machine: tc.m, Schema: tc.spec.Schema, Arena: arena, PerSymbolTags: perSymbol}
				b.SetBytes(int64(len(input)))
				var tagNs, partNs float64
				var deviceBytes int64
				for i := 0; i < b.N; i++ {
					arena.Reset()
					res, err := Parse(input, opts)
					if err != nil {
						b.Fatal(err)
					}
					tagNs += float64(res.Stats.Phases["tag"].Nanoseconds())
					partNs += float64(res.Stats.Phases["partition"].Nanoseconds())
					deviceBytes = res.Stats.DeviceBytes
				}
				b.ReportMetric(tagNs/float64(b.N), "tag-ns")
				b.ReportMetric(partNs/float64(b.N), "partition-ns")
				b.ReportMetric(float64(deviceBytes), "device-bytes")
			})
		}
	}
}
