package core

import (
	"math/bits"
	"sort"

	"repro/internal/bitmap"
	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/offsets"
)

// bitmaps are the three bit-per-symbol indexes of §3.1.
type bitmaps struct {
	record  *bitmap.Bitmap // symbol delimits a record
	field   *bitmap.Bitmap // symbol delimits a field
	control *bitmap.Bitmap // symbol is not part of any field value
}

// chunkMeta is the per-chunk metadata collected by the multi-DFA
// path's emission pass (emitBitmaps) for the offset scans.
type chunkMeta struct {
	recCount int64                // record delimiters in the chunk
	colOff   offsets.ColumnOffset // rel/abs column offset handed to the successor
	relFirst int                  // field delimiters before the chunk's first record delimiter
	sawRec   bool                 // chunk contains at least one record delimiter
	mm       offsets.MinMax       // column counts of records fully inside the chunk
}

// tagBuffers hold the per-symbol tag outputs.
type tagBuffers struct {
	colTags []uint32 // sort keys; sentinel marks irrelevant symbols
	recTags []uint32 // RecordTagged only
	rewrite []byte   // InlineTerminated only: input with delimiters replaced
	aux     []bool   // VectorDelimited only: delimiter marks
}

// tagSymbols is the per-symbol tag phase (§3.2 bottom of Figure 4,
// §4.1), the reference for tagRuns: every symbol is tagged with the
// output column it belongs to; data symbols of kept columns carry their
// record tag (or the mode-specific delimiter encoding); everything else
// gets the sentinel key and is dropped after partitioning. The returned reject vector flags records whose column
// count deviates from the expected count (when RejectInconsistent).
func (p *pipeline) tagSymbols() []bool {
	n := len(p.input)
	// colTags is fully written below — every data run is bulk-filled and
	// every structural byte hits a switch branch — so it skips the
	// recycled-memory zeroing. recTags (written on data runs only) and
	// rewrite (written on data runs and record/field delimiters, but NOT
	// on plain control bytes like quotes) may keep stale bytes at their
	// unwritten positions: those positions always carry the sentinel
	// column tag, so the scatter moves them into the never-read sentinel
	// bucket. aux must stay zeroed: data positions rely on the implicit
	// false (only delimiters are marked).
	t := &tagBuffers{colTags: device.AllocDirty[uint32](p.Arena, n)}
	switch p.Mode {
	case css.RecordTagged:
		t.recTags = device.AllocDirty[uint32](p.Arena, n)
	case css.InlineTerminated:
		t.rewrite = device.AllocDirty[byte](p.Arena, n)
	case css.VectorDelimited:
		t.aux = device.Alloc[bool](p.Arena, n)
	}
	p.tags = t

	rejected := p.newRejected()
	inconsistent := p.RejectInconsistent
	skip := p.SkipRecords
	dropped := p.pushdownDropped()
	// Per-chunk sentinel-symbol counts: summed below into keptSyms, the
	// partition stage's output size (sentinel symbols are histogrammed but
	// never moved).
	sentCounts := device.Alloc[int64](p.Arena, p.chunks)
	bm := p.bitmaps

	p.Device.Launch("tag", p.chunks, func(c int) {
		lo, hi := p.chunkBounds(c)
		rec := p.recBase[c]
		col := p.colBase[c].Value
		// skipPtr is the lower bound of rec in the skip list; rec - skipPtr
		// - dropBefore is the output record index.
		skipPtr := sort.Search(len(skip), func(i int) bool { return skip[i] >= rec })
		var dropBefore int64
		if dropped != nil {
			dropBefore = p.dropRank[rec]
		}
		var sent int64
		// Every non-data symbol (record delimiter, field delimiter,
		// control) carries the control bit, so the clear runs of the
		// control bitmap are exactly the data runs — and within one data
		// run the record, column, and skip context cannot change. Tagging
		// therefore walks structural byte to structural byte — consuming
		// the control bitmap's set bits word at a time — and fills each
		// data run in bulk instead of re-deriving the context per byte.
		cw := lo >> 6
		var pend uint64
		if lo < hi {
			pend = bm.control.Word(cw) &^ (1<<uint(lo&63) - 1)
		}
		// nextStructural returns the next unconsumed set bit of the
		// control bitmap in [lo, hi), or hi.
		nextStructural := func() int {
			for {
				if pend != 0 {
					s := cw<<6 + bits.TrailingZeros64(pend)
					pend &= pend - 1
					if s >= hi {
						return hi
					}
					return s
				}
				cw++
				if cw<<6 >= hi {
					return hi
				}
				pend = bm.control.Word(cw)
			}
		}
		for i := lo; i < hi; {
			// Symbols beyond the last counted record (the remainder in
			// TrailingRemainder mode) are irrelevant, like skipped records.
			inSkipList := skipPtr < len(skip) && skip[skipPtr] == rec
			recSkipped := inSkipList || rec >= p.numRecords
			recDropped := dropped != nil && rec < p.numRecords && dropped[rec]
			irrelevant := recSkipped || recDropped
			outRec := rec - int64(skipPtr) - dropBefore

			next := nextStructural()
			if next > i {
				// Data run [i, next): one key, one record tag. Sentinel
				// runs (unselected columns, skipped/dropped records) skip
				// the payload fills: their stale payload bytes are never
				// moved by the partition stage, let alone read.
				key := p.mapColumn(col, irrelevant)
				fill32(t.colTags[i:next], key)
				if key == p.sentinel {
					sent += int64(next - i)
				} else {
					switch p.Mode {
					case css.RecordTagged:
						fill32(t.recTags[i:next], uint32(outRec))
					case css.InlineTerminated:
						copy(t.rewrite[i:next], p.input[i:next])
					}
				}
				i = next
				if i >= hi {
					break
				}
			}

			// Structural byte i.
			switch {
			case bm.record.Get(i):
				sent += p.tagDelimiter(t, i, col, outRec, irrelevant)
				if inconsistent && !irrelevant && col+1 != p.numColumns {
					rejected[outRec] = true
				}
				rec++
				col = 0
				if inSkipList {
					skipPtr++
				}
				if recDropped {
					dropBefore++
				}
			case bm.field.Get(i):
				sent += p.tagDelimiter(t, i, col, outRec, irrelevant)
				col++
			default: // control symbol that delimits nothing
				t.colTags[i] = p.sentinel
				sent++
			}
			i++
		}
		sentCounts[c] = sent
	})

	var sentTotal int64
	for _, s := range sentCounts {
		sentTotal += s
	}
	p.keptSyms = n - int(sentTotal)

	p.rejectTrailing(rejected)
	return rejected
}

// newRejected returns the reject vector, or nil when nothing can be
// rejected. It escapes into the output table, so it comes from the Go
// heap, not the recycled device arena.
func (p *pipeline) newRejected() []bool {
	if p.RejectInconsistent || p.RejectMalformed {
		return make([]bool, p.numOutRecords)
	}
	return nil
}

// pushdownDropped returns the per-record Where verdicts when the rows
// are pruned before partitioning, else nil. Records dropped by Where tag
// exactly like skipped records (their symbols get the sentinel key) and
// the kept records renumber densely via the drop-rank prefix. On the
// post-hoc path rows prune from the materialised table instead.
func (p *pipeline) pushdownDropped() []bool {
	if !p.pushdown {
		return nil
	}
	return p.dropped
}

// rejectTrailing checks the trailing record's column count under
// RejectInconsistent. That record has no closing delimiter, so the
// check runs against the final column-offset state. A skipped or
// pushdown-dropped trailing record is absent from the output and checks
// nothing.
func (p *pipeline) rejectTrailing(rejected []bool) {
	if !p.RejectInconsistent || !p.trailing {
		return
	}
	skip, dropped := p.SkipRecords, p.pushdownDropped()
	lastSkipped := len(skip) > 0 && skip[len(skip)-1] == p.numRecords-1
	lastDropped := dropped != nil && dropped[p.numRecords-1]
	if !lastSkipped && !lastDropped && p.colTotal.Value+1 != p.numColumns {
		rejected[p.numOutRecords-1] = true
	}
}

// tagDelimiter assigns a field/record delimiter to the column of the
// field it terminates and reports whether the symbol got the sentinel
// key (1) or a kept key (0), for the kept-symbol count. In RecordTagged
// mode delimiters are irrelevant (record association comes from the
// tags); in the inline mode the delimiter byte is rewritten to the
// terminator; in the vector mode it stays in the CSS and is marked in
// the aux vector (§4.1, Figure 6).
func (p *pipeline) tagDelimiter(t *tagBuffers, i int, col int, outRec int64, irrelevant bool) int64 {
	switch p.Mode {
	case css.RecordTagged:
		t.colTags[i] = p.sentinel
		return 1
	case css.InlineTerminated:
		key := p.mapColumn(col, irrelevant)
		t.colTags[i] = key
		if key == p.sentinel {
			return 1
		}
		t.rewrite[i] = p.Terminator
	case css.VectorDelimited:
		key := p.mapColumn(col, irrelevant)
		t.colTags[i] = key
		t.aux[i] = key != p.sentinel
		if key == p.sentinel {
			return 1
		}
	}
	return 0
}

// fill32 writes v into every element of dst — the bulk tag assignment
// for a data run.
func fill32(dst []uint32, v uint32) {
	for i := range dst {
		dst[i] = v
	}
}

// mapColumn maps an absolute input column to its output sort key,
// applying column selection, ragged-overflow clamping, and record
// irrelevance (skipped by SkipRecords or dropped by a pushed-down
// Where predicate).
func (p *pipeline) mapColumn(col int, irrelevant bool) uint32 {
	if irrelevant || col < 0 || col >= len(p.colMap) {
		return p.sentinel
	}
	return p.colMap[col]
}
