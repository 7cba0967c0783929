// Package offsets implements the record- and column-offset computation of
// §3.2 / Figure 4. After tagging, every chunk knows (a) how many record
// delimiters it contains and (b) either an absolute column offset (when
// the chunk saw a record delimiter, column counting restarted) or a
// relative one (the chunk only adds k field delimiters to whatever column
// its predecessor ended in). Record offsets fall out of an exclusive
// prefix sum; column offsets fall out of an exclusive scan under the
// rel/abs operator defined here, which is associative but not
// commutative.
package offsets

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/scan"
)

// Kind discriminates relative from absolute column offsets.
type Kind uint8

const (
	// Rel means the offset adds to the predecessor chunk's column offset.
	Rel Kind = iota
	// Abs means the offset restarts column counting (the chunk contained
	// a record delimiter).
	Abs
)

func (k Kind) String() string {
	if k == Abs {
		return "abs"
	}
	return "rel"
}

// ColumnOffset is the (type, value) pair of Figure 4.
type ColumnOffset struct {
	Kind  Kind
	Value int
}

func (c ColumnOffset) String() string { return fmt.Sprintf("%s %d", c.Kind, c.Value) }

// Combine implements the binary operation ⊕ of §3.2:
//
//	a ⊕ b = b                      if b is abs
//	a ⊕ b = (a.kind, a.val+b.val)  if b is rel
//
// An absolute right operand overrides everything before it; a relative
// right operand accumulates onto the left.
func Combine(a, b ColumnOffset) ColumnOffset {
	if b.Kind == Abs {
		return b
	}
	return ColumnOffset{Kind: a.Kind, Value: a.Value + b.Value}
}

// Op returns the scan operator for column offsets. The identity is
// (rel, 0): combining it on either side leaves the other operand intact
// (an absolute operand overrides it; a relative one adds zero).
func Op() scan.Op[ColumnOffset] {
	return scan.Op[ColumnOffset]{
		Identity: ColumnOffset{Kind: Rel, Value: 0},
		Combine:  Combine,
	}
}

// ExclusiveColumnScan computes each chunk's starting column offset: an
// exclusive scan under ⊕ over the per-chunk column offsets. For the first
// chunk (and any chunk whose entire prefix is relative) the result is
// relative to the input's start, which is column zero — callers read
// .Value directly. Returns the total (the column offset state after the
// last chunk).
func ExclusiveColumnScan(d *device.Device, phase string, perChunk, dst []ColumnOffset) ColumnOffset {
	return scan.Exclusive(d, phase, Op(), perChunk, dst)
}

// ExclusiveColumnScanArena is ExclusiveColumnScan with arena-backed scan
// temporaries.
func ExclusiveColumnScanArena(d *device.Device, a *device.Arena, phase string, perChunk, dst []ColumnOffset) ColumnOffset {
	return scan.ExclusiveArena(d, a, phase, Op(), perChunk, dst)
}

// ExclusiveRecordScan computes each chunk's starting record index: an
// exclusive prefix sum over per-chunk record-delimiter counts (§3.2).
// Returns the total record-delimiter count.
func ExclusiveRecordScan(d *device.Device, phase string, counts, dst []int64) int64 {
	return scan.Exclusive(d, phase, scan.Sum[int64](), counts, dst)
}

// MinMax tracks the minimum and maximum column count per record observed
// by a chunk, for column-count inference and validation (§4.3). Valid is
// false while the chunk has seen no complete record ("we use an extra bit
// to denote if no minimum and maximum was determined").
type MinMax struct {
	Valid    bool
	Min, Max int
}

// Observe folds a completed record's column count into the running
// min/max.
func (m *MinMax) Observe(columns int) {
	if !m.Valid {
		m.Valid = true
		m.Min, m.Max = columns, columns
		return
	}
	if columns < m.Min {
		m.Min = columns
	}
	if columns > m.Max {
		m.Max = columns
	}
}

// Merge folds another MinMax into m.
func (m *MinMax) Merge(o MinMax) {
	if !o.Valid {
		return
	}
	if !m.Valid {
		m.Valid, m.Min, m.Max = true, o.Min, o.Max
		return
	}
	if o.Min < m.Min {
		m.Min = o.Min
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
}
