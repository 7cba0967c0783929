// Command gendata writes the synthetic datasets of the experimental
// evaluation: yelp-reviews-like (9 quoted columns, text-heavy, embedded
// delimiters), NYC-taxi-trips-like (17 unquoted numerical/temporal
// columns), and their skewed variants containing one giant record. The
// real datasets are not redistributable; these reproduce the structural
// statistics the algorithm's behaviour depends on (see DESIGN.md).
//
// Usage:
//
//	gendata -dataset yelp -size 256MB -o yelp.csv
//	gendata -dataset taxi -records 100000 -o taxi.csv
//	gendata -dataset yelp-skewed -size 64MB -giant 16MB -o skew.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	parparaw "repro"
	"repro/internal/workload"
)

func main() {
	dataset := flag.String("dataset", "yelp", "dataset: yelp, taxi, yelp-skewed, taxi-skewed")
	size := flag.String("size", "16MB", "approximate output size")
	records := flag.Int("records", 0, "exact record count (overrides -size)")
	giant := flag.String("giant", "", "giant-record size for skewed datasets (default 40% of -size)")
	seed := flag.Int64("seed", 42, "generation seed")
	out := flag.String("o", "-", "output file ('-' = stdout)")
	flag.Parse()

	if err := run(*dataset, *size, *records, *giant, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "gendata:", err)
		os.Exit(1)
	}
}

func run(dataset, size string, records int, giant string, seed int64, out string) error {
	bytes, err := parparaw.ParseSizeSpec(size)
	if err != nil {
		return err
	}

	var spec workload.Spec
	base := strings.TrimSuffix(dataset, "-skewed")
	switch base {
	case "yelp":
		spec = workload.Yelp()
	case "taxi":
		spec = workload.Taxi()
	default:
		return fmt.Errorf("unknown dataset %q (have yelp, taxi, yelp-skewed, taxi-skewed)", dataset)
	}
	if strings.HasSuffix(dataset, "-skewed") {
		g := bytes * 2 / 5
		if giant != "" {
			if g, err = parparaw.ParseSizeSpec(giant); err != nil {
				return err
			}
		}
		spec = workload.Skewed(spec, g)
	}

	var data []byte
	if records > 0 {
		data = spec.GenerateRecords(records, seed)
	} else {
		data = spec.Generate(bytes, seed)
	}

	w := os.Stdout
	if out != "" && out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(data); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if w != os.Stdout {
		fmt.Fprintf(os.Stderr, "gendata: wrote %d bytes (%s) to %s\n", len(data), dataset, out)
	}
	return nil
}
