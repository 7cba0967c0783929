package core

// walk.go is the production parse stage. The paper splits parsing into
// three steps so that thousands of GPU threads never wait on a
// sequential pass: a multi-DFA context pass (§3.1), a per-chunk
// bitmap-emitting DFA pass (§3.1-3.2) and the record/column offset
// scans (§3.2, Figure 4). On a CPU one skip-ahead DFA walk from the
// start state does all three jobs at once: it knows every byte's state,
// so it sets the bitmap bits directly (one writer, no staging, no
// atomic merges) and counts records and columns as it goes, writing
// each chunk's record and column offsets at the chunk's first byte.
// The multi-DFA pipeline (kernels.go) keeps the paper's three steps for
// modelled-time devices and Options.MultiDFA.

import (
	"repro/internal/bitmap"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/offsets"
)

// walkResult is what the walk hands the offset resolution besides the
// per-chunk offsets and the bitmaps.
type walkResult struct {
	records  int64                // record delimiters
	colTotal offsets.ColumnOffset // column offset after the last byte
	mm       offsets.MinMax       // column counts of the delimited records
	lastRec  int                  // offset of the last record delimiter, or -1
	end      dfa.State
}

// emitWalk is the sequential pipeline's parse stage: one walk yields the
// bitmaps, recBase/colBase, colTotal, the record count, the observed
// column range, the carry-over remainder and the end state. It is
// charged to the "parse" phase; the "scan" phase stays empty.
func (p *pipeline) emitWalk() error {
	p.initChunks()
	n := len(p.input)
	rec := device.Alloc[uint64](p.Arena, bitmap.WordsFor(n))
	fld := device.Alloc[uint64](p.Arena, bitmap.WordsFor(n))
	ctl := device.Alloc[uint64](p.Arena, bitmap.WordsFor(n))
	p.bitmaps = &bitmaps{
		record:  bitmap.FromWords(rec, n),
		field:   bitmap.FromWords(fld, n),
		control: bitmap.FromWords(ctl, n),
	}
	// The walk writes every chunk's offsets, so they skip the zeroing.
	p.recBase = device.AllocDirty[int64](p.Arena, p.chunks)
	p.colBase = device.AllocDirty[offsets.ColumnOffset](p.Arena, p.chunks)
	var w walkResult
	p.Device.Launch("parse", 1, func(int) {
		w = p.walk(rec, fld, ctl)
	})
	p.endState = w.end
	if err := p.checkEndState(); err != nil {
		return err
	}
	if p.Trailing == TrailingRemainder {
		p.remainder = n - w.lastRec - 1
	}
	p.colTotal = w.colTotal
	return p.resolveOffsets(w.records, w.mm)
}

// walk is emitWalk's body. It takes the fused tables when the machine
// has them on and the split group/emission/transition lookups
// otherwise, and skips runs of data-emitting self-loops only when the
// skip scanners are on: a skipped run sets no bit and changes no
// offset, so every chunk start inside it shares the run's offsets.
func (p *pipeline) walk(rec, fld, ctl []uint64) walkResult {
	in := p.input
	n := len(in)
	m := p.Machine
	fused := m.Fused()
	skip := m.SkipScanners()
	cs := p.ChunkSize
	recBase, colBase := p.recBase, p.colBase
	s := m.Start()
	var recs int64
	var col offsets.ColumnOffset // (rel, 0): no record delimiter yet
	var mm offsets.MinMax
	last := -1
	c, bound := 0, 0 // next chunk to record and its first byte
	for i := 0; i < n; {
		if skip != nil {
			if sc := skip[s]; sc != nil {
				j := sc.Next(in, i, n)
				for ; bound <= j && bound < n; bound += cs {
					recBase[c], colBase[c] = recs, col
					c++
				}
				if i = j; i >= n {
					break
				}
			}
		}
		if i == bound {
			recBase[c], colBase[c] = recs, col
			c++
			bound += cs
		}
		var e dfa.Emission
		if fused {
			s, e = m.Step(s, in[i])
		} else {
			g := m.Group(in[i])
			s, e = m.NextByGroup(s, g), m.Emission(s, g)
		}
		if e != dfa.EmitData {
			word, bit := i>>6, uint64(1)<<(i&63)
			switch {
			case e.IsRecordDelim():
				rec[word] |= bit
				ctl[word] |= bit
				mm.Observe(col.Value + 1)
				recs++
				col = offsets.ColumnOffset{Kind: offsets.Abs}
				last = i
			case e.IsFieldDelim():
				fld[word] |= bit
				ctl[word] |= bit
				col.Value++
			case e.IsControl():
				ctl[word] |= bit
			}
		}
		i++
	}
	return walkResult{records: recs, colTotal: col, mm: mm, lastRec: last, end: s}
}
