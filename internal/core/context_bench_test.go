package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/workload"
)

// BenchmarkContextPass measures the two parse paths up to the offsets,
// per dialect, on 4 MiB inputs and a device of GOMAXPROCS workers: the
// multi-DFA context pass, bitmap emission and offset scans
// (parseVectors + scanStates + emitBitmaps + offsetScans) against the
// sequential walk (emitWalk). Their rate ratios keep the multi-DFA
// path off the production path (see the package doc). Run single-core,
// then with the host's cores so the multi-DFA path spreads over them:
//
//	go test -run '^$' -bench BenchmarkContextPass -cpu 1,2 ./internal/core
func BenchmarkContextPass(b *testing.B) {
	const size = 4 << 20
	taxi := workload.Taxi().Generate(size, 1)
	yelp := workload.Yelp().Generate(size, 1)
	cases := []struct {
		name  string
		m     *dfa.Machine
		input []byte
	}{
		{"csv-taxi", dfa.RFC4180(), taxi},
		{"csv-yelp", dfa.RFC4180(), yelp},
		{"tsv-taxi", dfa.MustEscaped(dfa.EscapedOptions{}), bytes.ReplaceAll(taxi, []byte(","), []byte("\t"))},
		{"psv-yelp", dfa.MustEscaped(dfa.EscapedOptions{FieldDelim: '|'}), bytes.ReplaceAll(yelp, []byte(","), []byte("|"))},
		{"jsonl", dfa.MustJSONL(dfa.JSONLOptions{}), workload.JSONLines().Generate(size, 1)},
		{"weblog", dfa.Weblog(), workload.Weblog().Generate(size, 1)},
	}
	for _, tc := range cases {
		for _, multiDFA := range []bool{true, false} {
			name := tc.name + "/sequential"
			if multiDFA {
				name = tc.name + "/multi-dfa"
			}
			b.Run(name, func(b *testing.B) {
				o := Options{Machine: tc.m, Device: device.New(device.Config{Workers: runtime.GOMAXPROCS(0)})}.withDefaults()
				o.Arena = device.NewArena()
				b.SetBytes(int64(len(tc.input)))
				for i := 0; i < b.N; i++ {
					o.Arena.Reset()
					if _, err := parseToOffsets(o, tc.input, multiDFA); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
