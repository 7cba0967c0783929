package parparaw

import (
	"errors"

	"repro/internal/convert"
)

// errSelectConflict reports the ambiguous configuration of both
// projection spellings at once.
var errSelectConflict = errors.New("parparaw: both SelectColumns and Scan.Select set; use one")

// ScanOptions is the projection/predicate pushdown surface (§4.3
// extended): which columns a parse should materialise and which rows it
// should keep, expressed so the compiled plan can prune the work instead
// of the caller pruning the output.
//
// Projection (Select) marks every other column's symbols irrelevant
// before partitioning: they cost the DFA walk and a histogram increment,
// but are never moved, indexed, type-inferred, or materialised.
// Predicates (Where) are evaluated against raw field bytes right after
// the offset scans; with a fixed Schema, failing rows are pruned before
// the partition and convert stages ever see them (predicate pushdown),
// so a 1%-selectivity scan moves ~1% of the data. With an inferred
// schema — where types must be derived from every row — the same
// predicates are evaluated at the same point but applied to the
// materialised table instead; output is byte-identical either way.
type ScanOptions struct {
	// Select keeps only the listed column indices, in the given order.
	// Nil keeps all columns. It is the same projection as
	// Options.SelectColumns (setting both is a configuration error);
	// it lives here too so a scan's shape reads as one value.
	Select []int
	// Where lists row predicates combined by AND: a row is kept only if
	// every predicate holds. Build them with Eq, Ne, Prefix, IsNull,
	// NotNull, IntRange, and FloatRange. Predicates may reference
	// columns outside Select — filtering does not require materialising.
	Where []Predicate
}

// Predicate is one raw-byte row filter of ScanOptions.Where. The value
// a predicate sees is exactly the field value the convert stage would
// materialise: the field's bytes with control symbols (quotes, carriage
// returns) removed, the column's DefaultValues entry substituted when
// the field is empty, and fields missing from ragged records treated as
// empty. For UTF-16 inputs the bytes are the transcoded UTF-8. Numeric
// range predicates parse with the same SWAR validate-then-convert
// parsers as the convert stage (bit-exact with the scalar reference);
// unparseable or empty fields fail a range predicate.
type Predicate struct {
	p convert.Predicate
}

// Column returns the input column index the predicate reads
// (pre-selection numbering, like SelectColumns).
func (p Predicate) Column() int { return p.p.Column }

// Eq keeps rows whose field bytes in column equal value exactly.
func Eq(column int, value string) Predicate {
	return Predicate{convert.Predicate{Column: column, Op: convert.PredEq, Value: []byte(value)}}
}

// Ne keeps rows whose field bytes in column differ from value.
func Ne(column int, value string) Predicate {
	return Predicate{convert.Predicate{Column: column, Op: convert.PredNe, Value: []byte(value)}}
}

// Prefix keeps rows whose field bytes in column start with prefix.
func Prefix(column int, prefix string) Predicate {
	return Predicate{convert.Predicate{Column: column, Op: convert.PredPrefix, Value: []byte(prefix)}}
}

// IsNull keeps rows whose field in column is empty (or missing) after
// default-value substitution — a raw-byte test independent of the
// column's type (it does not match NULLs from failed conversions).
func IsNull(column int) Predicate {
	return Predicate{convert.Predicate{Column: column, Op: convert.PredIsNull}}
}

// NotNull keeps rows whose field in column is non-empty after
// default-value substitution.
func NotNull(column int) Predicate {
	return Predicate{convert.Predicate{Column: column, Op: convert.PredNotNull}}
}

// IntRange keeps rows whose field in column parses as an integer in
// [lo, hi]. Unparseable or empty fields fail the predicate.
func IntRange(column int, lo, hi int64) Predicate {
	return Predicate{convert.Predicate{Column: column, Op: convert.PredIntRange, IntLo: lo, IntHi: hi}}
}

// FloatRange keeps rows whose field in column parses as a float in
// [lo, hi]. Unparseable or empty fields fail the predicate.
func FloatRange(column int, lo, hi float64) Predicate {
	return Predicate{convert.Predicate{Column: column, Op: convert.PredFloatRange, FloatLo: lo, FloatHi: hi}}
}

// internal unwraps the Where list for the core options.
func (s ScanOptions) internalWhere() []convert.Predicate {
	if len(s.Where) == 0 {
		return nil
	}
	out := make([]convert.Predicate, len(s.Where))
	for i, p := range s.Where {
		out[i] = p.p
	}
	return out
}
