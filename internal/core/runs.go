package core

// runs.go is the production tag and partition path. Within one data run
// (the bytes between two structural bytes) the output column and the
// record tag cannot change, so instead of tagging every symbol and
// counting-sorting the symbols by key (tag.go, the paper's §3.2-3.3
// shape for a GPU radix sort), the tag stage records one descriptor per
// kept data run and the partition stage moves each run with one copy.
// The CSS layout the convert stage reads is identical either way.

import (
	"math/bits"
	"sort"

	"repro/internal/bitmap"
	"repro/internal/css"
	"repro/internal/device"
)

// tagTileBytes is the size of one run-path tile: the bytes one tag
// block walks and one partition block places. Each tile owns a row of
// per-key byte counts (then output cursors). Tag plus partition time is
// flat from 4 KiB to 128 KiB tiles on 1 and 4 MiB inputs; at 256 KiB a
// 1 MiB partition has too few tiles to keep two workers busy
// (BENCH_14.json).
const tagTileBytes = 64 << 10

// runTags is the run-path tag output consumed by scatterRuns. A kept
// run is described by its first byte (tile-relative), its output column
// and, in RecordTagged mode, its output record: 12 B per run, 8 B in the
// delimited modes. Its end is not stored: a run always ends at the next
// structural byte or the tile's end, and in the delimited modes a
// field's delimiter joins the run it closes (or forms a one-byte run of
// its own when no data byte precedes it), so scatterRuns re-derives the
// end from the bitmaps.
type runTags struct {
	tileChunks int
	starts     []uint32 // tile t's runs are [slot[t], slot[t]+used[t])
	keys       []uint32
	recs       []uint32 // RecordTagged only
	slot       []int    // first descriptor slot of each tile
	used       []int    // descriptors written by each tile
	bytes      []int64  // kept bytes per (tile, key), tile-major; output cursors after the prefix sum
}

// tileBounds returns tile t's byte range.
func (p *pipeline) tileBounds(rt *runTags, t int) (lo, hi int) {
	lo = t * rt.tileChunks * p.ChunkSize
	hi = lo + rt.tileChunks*p.ChunkSize
	if hi > len(p.input) {
		hi = len(p.input)
	}
	return lo, hi
}

// tagRuns is the run path's tag phase. Each tile walks the control
// bitmap from structural byte to structural byte, starting from its
// first chunk's record and column offsets, and writes one descriptor
// per kept run plus the run's length to the tile's per-key byte counts.
// Sentinel runs (unselected columns, skipped or pruned records, bytes
// past the last record) store nothing: they are never moved. The
// descriptor slots of a tile are sized exactly by runSlots, prefix-summed
// across tiles. It returns the reject vector like tagSymbols.
func (p *pipeline) tagRuns() []bool {
	d := p.Device
	tc := max(1, tagTileBytes/p.ChunkSize)
	tiles := (p.chunks + tc - 1) / tc
	keys := int(p.sentinel)
	rt := &runTags{
		tileChunks: tc,
		slot:       device.Alloc[int](p.Arena, tiles+1),
		used:       device.Alloc[int](p.Arena, tiles),
		bytes:      device.Alloc[int64](p.Arena, tiles*keys),
	}
	p.runTags = rt
	bs := d.Config().BlockSize
	d.LaunchBlocks("tag", tiles*bs, func(t, _, _ int) {
		lo, hi := p.tileBounds(rt, t)
		rt.slot[t+1] = p.runSlots(lo, hi)
	})
	for t := 0; t < tiles; t++ {
		rt.slot[t+1] += rt.slot[t]
	}
	slots := rt.slot[tiles]
	rt.starts = device.AllocDirty[uint32](p.Arena, slots)
	rt.keys = device.AllocDirty[uint32](p.Arena, slots)
	if p.Mode == css.RecordTagged {
		rt.recs = device.AllocDirty[uint32](p.Arena, slots)
	}

	rejected := p.newRejected()
	inconsistent := p.RejectInconsistent
	skip := p.SkipRecords
	dropped := p.pushdownDropped()
	delimited := p.Mode != css.RecordTagged
	bm := p.bitmaps

	d.LaunchBlocks("tag", tiles*bs, func(t, _, _ int) {
		lo, hi := p.tileBounds(rt, t)
		rec := p.recBase[t*tc]
		col := p.colBase[t*tc].Value
		skipPtr := sort.Search(len(skip), func(i int) bool { return skip[i] >= rec })
		var dropBefore int64
		if dropped != nil {
			dropBefore = p.dropRank[rec]
		}
		counts := rt.bytes[t*keys : (t+1)*keys]
		nr := rt.slot[t]

		cw := lo >> 6
		var pend uint64
		if lo < hi {
			pend = bm.control.Word(cw) &^ (1<<uint(lo&63) - 1)
		}
		for i := lo; i < hi; {
			// next is the next structural byte in [i, hi), or hi. The
			// walk keeps the pending control word across runs, so each
			// word is loaded once; scatterRuns' per-run nextSet is
			// stateless.
			next := hi
			for {
				if pend != 0 {
					if s := cw<<6 + bits.TrailingZeros64(pend); s < hi {
						next = s
						pend &= pend - 1
					}
					break
				}
				cw++
				if cw<<6 >= hi {
					break
				}
				pend = bm.control.Word(cw)
			}
			inSkipList := skipPtr < len(skip) && skip[skipPtr] == rec
			recDropped := dropped != nil && rec < p.numRecords && dropped[rec]
			irrelevant := inSkipList || rec >= p.numRecords || recDropped
			outRec := rec - int64(skipPtr) - dropBefore

			// Word tests, not Get: the structural byte is known in range.
			isRec := next < hi && bm.record.Word(next>>6)&(1<<(next&63)) != 0
			isField := next < hi && !isRec && bm.field.Word(next>>6)&(1<<(next&63)) != 0
			end := next
			if delimited && (isRec || isField) {
				end++ // the delimiter closes the field's run
			}
			if key := p.mapColumn(col, irrelevant); end > i && key != p.sentinel {
				rt.starts[nr], rt.keys[nr] = uint32(i-lo), key
				if rt.recs != nil {
					rt.recs[nr] = uint32(outRec)
				}
				nr++
				counts[key] += int64(end - i)
			}
			switch {
			case isRec:
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
			case isField:
				col++
			}
			i = next + 1
		}
		rt.used[t] = nr - rt.slot[t]
	})
	p.rejectTrailing(rejected)
	return rejected
}

// nextSet returns the first set bit of b in [i, hi), or hi.
func nextSet(b *bitmap.Bitmap, i, hi int) int {
	w := i >> 6
	word := b.Word(w) >> (i & 63)
	if word != 0 {
		return min(i+bits.TrailingZeros64(word), hi)
	}
	for w++; w<<6 < hi; w++ {
		if word = b.Word(w); word != 0 {
			return min(w<<6+bits.TrailingZeros64(word), hi)
		}
	}
	return hi
}

// runSlots bounds the runs tagRuns can write for the tile [lo, hi): one
// per data run (a data byte at lo or after a structural byte) and, in
// the delimited modes, one per delimiter that does not close a data run
// (a delimiter at lo or after a structural byte). The count is exact
// before sentinel runs are dropped.
func (p *pipeline) runSlots(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	bm := p.bitmaps
	delimited := p.Mode != css.RecordTagged
	n := 0
	after := uint64(1) << (lo & 63) // byte lo opens a run whatever precedes it
	for w := lo >> 6; w<<6 < hi; w++ {
		c := bm.control.Word(w)
		after |= c << 1 // bit j: byte j-1 of the word is structural
		opens := ^c & after
		if delimited {
			opens |= (bm.record.Word(w) | bm.field.Word(w)) & after
		}
		if w == lo>>6 {
			opens &^= 1<<(lo&63) - 1
		}
		if end := hi - w<<6; end < 64 {
			opens &= 1<<end - 1
		}
		n += bits.OnesCount64(opens)
		after = c >> 63
	}
	return n
}

// scatterRuns is the run path's partition phase: one prefix sum over
// the (key, tile) byte counts gives every tile its first output offset
// per key, and each tile then places its runs with a copy for the
// symbols plus the mode's payload (a fill for the record tags, the
// terminator or the aux mark for a closing delimiter). The output
// order within a key is the input order, exactly as the stable
// counting scatter produces it.
func (p *pipeline) scatterRuns() {
	d, n := p.Device, len(p.input)
	rt := p.runTags
	keys := int(p.sentinel)
	tiles := len(rt.used)
	p.hist = device.Alloc[int64](p.Arena, keys+1)
	p.colStart = device.Alloc[int64](p.Arena, keys+1)
	var kept int64
	d.Launch("partition", 1, func(int) {
		for k := 0; k < keys; k++ {
			p.colStart[k] = kept
			for t := 0; t < tiles; t++ {
				c := rt.bytes[t*keys+k]
				rt.bytes[t*keys+k] = kept
				kept += c
			}
			p.hist[k] = kept - p.colStart[k]
		}
	})
	// The sentinel key's symbols stay where they are; its slot of the
	// layout is what the counting scatter would report.
	p.colStart[keys], p.hist[keys] = kept, int64(n)-kept
	p.stats.BytesSkipped = int64(n) - kept

	p.sortedSyms = device.AllocDirty[byte](p.Arena, int(kept))
	switch p.Mode {
	case css.RecordTagged:
		p.sortedRecs = device.AllocDirty[uint32](p.Arena, int(kept))
	case css.VectorDelimited:
		p.sortedAux = device.Alloc[bool](p.Arena, int(kept))
	}
	bm := p.bitmaps
	delimited := p.Mode != css.RecordTagged
	d.LaunchBlocks("partition", tiles*d.Config().BlockSize, func(t, _, _ int) {
		lo, hi := p.tileBounds(rt, t)
		cur := rt.bytes[t*keys : (t+1)*keys]
		for j := rt.slot[t]; j < rt.slot[t]+rt.used[t]; j++ {
			src := lo + int(rt.starts[j])
			end := nextSet(bm.control, src, hi)
			closed := delimited && end < hi && (bm.record.Word(end>>6)|bm.field.Word(end>>6))&(1<<(end&63)) != 0
			if closed {
				end++
			}
			key := rt.keys[j]
			dst := cur[key]
			cur[key] = dst + int64(end-src)
			out := p.sortedSyms[dst:][:end-src]
			copy(out, p.input[src:end])
			switch {
			case rt.recs != nil:
				fill32(p.sortedRecs[dst:][:end-src], rt.recs[j])
			case closed && p.Mode == css.InlineTerminated:
				out[len(out)-1] = p.Terminator
			case closed:
				p.sortedAux[dst+int64(len(out))-1] = true
			}
		}
	})
	p.runTags = nil // descriptors are dead after the scatter
}
