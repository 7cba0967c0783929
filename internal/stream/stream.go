// Package stream implements the end-to-end streaming extension of §4.4 /
// Figure 7: raw input is pulled from a Source in fixed-size chunks and
// parsed partition by partition, with the read of the next chunks
// overlapping the parse of the current partition. A double buffer
// bounds host memory: chunk i is read into host buffer i%2, and the
// read of chunk i+2 must wait until the parse that consumed chunk i has
// released its buffer (including the carry-over copy, the "copy c/o"
// dependency in Figure 7). Peak host buffering is therefore
// O(PartitionSize + carry-over), independent of the input's total size —
// the property that lets the system ingest inputs larger than memory.
// The paper's device additionally pays a PCIe transfer per partition in
// each direction; this pipeline runs on the host and has no
// interconnect, so the transfers exist only in the analytical schedule
// of Simulate (the Figure 12/13 experiments).
//
// The carry-over handles records straddling partition boundaries: the
// parse of partition i reports how many of its bytes belong to complete
// records; the incomplete tail is prepended to partition i+1's input.
//
// Failure model (PR 8): every failure class surfaces as a typed
// parparawerr error — reader failures (after the Source's RetryPolicy is
// exhausted) as ErrInput with the exact byte offset, validation failures
// as ErrMalformed, context cancellation as ErrCanceled, contained worker
// panics and pipeline invariant violations as ErrInternal, and strict
// budget denials as ErrBudget. Every exit path joins the pipeline's
// goroutines and returns every arena; on failure Run additionally
// returns the partial Result emitted before the failure, so callers can
// report progress (the cmd/parparaw SIGINT path). Parse-side failures
// can optionally be quarantined (Config.SkipBadPartitions) instead of
// failing the run.
package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/columnar"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/parparawerr"
)

// NextFresh returns the number of fresh input bytes the next partition
// consumes: the carry-over displaces fresh input so carry + fresh
// fills one fixed PartitionSize device buffer, a carry of a full
// partition or more (one record larger than a partition) still makes
// PartitionSize bytes of progress, and the final partition takes
// whatever remains. Shared with the modelled stream of
// internal/experiments so the Figure-12/13 numbers use the real
// pipeline's partition boundaries.
func NextFresh(partitionSize, carryLen, remaining int) int {
	fresh := partitionSize - carryLen
	if fresh <= 0 {
		fresh = partitionSize
	}
	if fresh > remaining {
		fresh = remaining
	}
	return fresh
}

// Partition is one partition's parse input: the assembled bytes (carry
// tail + fresh input), its input-order index, the byte offset of its
// first byte in the stream, and whether it is the final partition —
// whose trailing bytes must be consumed as the final record.
type Partition struct {
	// Index is the partition's input-order index.
	Index int
	// Base is the byte offset of Input[0] in the stream (after any
	// byte-order mark the caller stripped).
	Base int64
	// Input is the partition's bytes: carry-over followed by fresh
	// input. It is only valid for the duration of the parse call.
	Input []byte
	// Final marks the last partition (CompleteBytes is then ignored).
	Final bool
}

// PartitionResult is what parsing one partition yields.
type PartitionResult struct {
	// Table holds the partition's complete records in columnar form.
	Table *columnar.Table
	// CompleteBytes is the prefix of the partition's input (including
	// any prepended carry-over) covered by complete records; the rest is
	// carried over to the next partition.
	CompleteBytes int
	// Invalid reports that this partition's parse saw invalid input
	// without failing (the parser's non-erroring validation signal); the
	// pipeline ORs it into Stats.InvalidInput.
	Invalid bool
	// RowsPruned is the number of rows the partition's Where predicates
	// pruned; the pipeline sums it into Stats.RowsPruned.
	RowsPruned int64
	// BytesSkipped is the number of symbol bytes the partition's scatter
	// never moved (unselected columns, pruned rows); the pipeline sums it
	// into Stats.BytesSkipped.
	BytesSkipped int64
	// BadRecords is the number of malformed records the parse diverted
	// to the caller's quarantine callback; the pipeline sums it into
	// Stats.QuarantinedRecords.
	BadRecords int64
	// Chunks is the number of data-parallel chunks the parse cut the
	// partition into; the pipeline sums it into Stats.Chunks.
	Chunks int
}

// Parser parses one partition on the device.
type Parser interface {
	ParsePartition(part Partition) (PartitionResult, error)
}

// ParserFunc adapts a function to the Parser interface.
type ParserFunc func(part Partition) (PartitionResult, error)

// ParsePartition calls f.
func (f ParserFunc) ParsePartition(part Partition) (PartitionResult, error) {
	return f(part)
}

// Config describes the streaming pipeline.
type Config struct {
	// PartitionSize is the bytes of raw input per partition (Figure 12's
	// x-axis). Must be positive.
	PartitionSize int
	// Ctx cancels the run: the pipeline stops admitting partitions,
	// joins its goroutines, returns every arena, and reports a typed
	// parparawerr.ErrCanceled (alongside the partial Result). Nil means
	// context.Background(). A read already blocked inside the source's
	// io.Reader finishes (or fails) before the cancellation is observed
	// — Go cannot interrupt a Read in flight.
	Ctx context.Context
	// Retry is the source's transient-failure policy (see RetryPolicy).
	// The zero value disables retrying.
	Retry RetryPolicy
	// Arena, when non-nil, is the device memory shared by every
	// partition: the pipeline resets it before assembling each
	// partition's input, so partition i+1 re-parses inside partition i's
	// allocations — the paper's fixed device footprint (§4.4). The same
	// arena must be given to the Parser's per-partition parse options.
	// The serial pipeline uses it; the ring scheduler draws per-partition
	// arenas from Arenas instead.
	Arena *device.Arena
	// InFlight is the number of partitions the cross-partition ring
	// keeps in flight at once. Values above 1 select the ring scheduler,
	// which additionally requires Arenas and a RingParser; otherwise the
	// serial pipeline runs.
	InFlight int
	// Unordered emits each partition's table as soon as its parse
	// completes instead of buffering for input order; Result.Order then
	// records the input index of each emitted table.
	Unordered bool
	// DeviceBudget, when positive, bounds the estimated device bytes of
	// the partitions concurrently in flight: the ring stops admitting
	// new partitions while the budget is exceeded (at least one stays
	// admitted so the run always progresses — unless StrictBudget).
	DeviceBudget int64
	// StrictBudget fails the run with a typed parparawerr.ErrBudget
	// when a single partition's estimated footprint alone exceeds
	// DeviceBudget, instead of admitting it anyway. Only meaningful for
	// the ring scheduler with a positive DeviceBudget.
	StrictBudget bool
	// SkipBadPartitions quarantines parse-side failures (contained
	// panics, validation errors) instead of failing the run: the
	// partition's output is dropped, Stats.QuarantinedPartitions
	// counts it, and the stream continues. When the failed partition's
	// record boundary was pre-scanned (the ring's dispatched path) the
	// carry chain is intact and no neighbouring record is affected;
	// when it was not (serial carry path), the pending carry is dropped
	// with the partition, so a record straddling into it may also lose
	// its head. Reader failures and cancellation are never quarantined.
	SkipBadPartitions bool
	// Arenas supplies the ring scheduler's per-in-flight-partition
	// arenas. Every arena acquired during the run is returned before Run
	// returns.
	Arenas ArenaPool
}

func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// ArenaPool supplies device arenas to the ring scheduler, one per
// in-flight partition. The public Engine's sync.Pool of recycled arenas
// is the motivating implementation.
type ArenaPool interface {
	Get() *device.Arena
	Put(*device.Arena)
}

// RingParser is the parser contract of the cross-partition ring: beyond
// the serial Parser it must (a) pre-scan a partition's record boundary
// so the next partition's input can be finalised without waiting for
// the full parse, and (b) parse on a caller-supplied arena so several
// partitions can be in flight at once. ParseInFlight must be safe for
// concurrent calls on distinct arenas whenever Boundary reported ok for
// the partitions involved.
type RingParser interface {
	Parser
	// Boundary returns the carry-over tail length a parse of input
	// would report, when that is determinable without a full parse
	// (ok=false falls the partition back to the serial carry path —
	// e.g. while first-partition trimming is unsettled or the input
	// needs transcoding before record boundaries exist).
	Boundary(input []byte) (remainder int, ok bool)
	// Idle reports whether input, a carry that held no complete record
	// plus the fresh bytes appended to it, still holds none, so that a
	// parse would report nothing but the whole input as carry-over.
	// Its walk resumes at input[from:] in state, the end it returned
	// when input[:from] was idle (from 0 walks from the start). When
	// the previous partition held no complete record either, both
	// pipelines carry an idle partition whole into the next without
	// parsing it, so a record spanning many partitions is walked once
	// and parsed once, not once per partition.
	Idle(input []byte, from, state int) (end int, idle bool)
	// ParseInFlight parses one partition on the given arena.
	ParseInFlight(arena *device.Arena, part Partition) (PartitionResult, error)
}

// Stats summarises one streaming run.
type Stats struct {
	// Duration is the end-to-end wall-clock time of the run.
	Duration time.Duration
	// Partitions is the number of partitions processed.
	Partitions int
	// InputBytes is the raw input consumed; OutputBytes sums the data
	// bytes of the emitted tables (columnar.Table.DataBytes).
	InputBytes  int64
	OutputBytes int64
	// ParseBusy is the cumulative time the device spent parsing.
	ParseBusy time.Duration
	// MaxCarryOver is the largest carry-over observed (bytes).
	MaxCarryOver int
	// DeviceBytes is the peak arena footprint across all partitions
	// (zero when the run had no arena). Under the ring scheduler it sums
	// the per-arena peaks of every arena the run drew — the memory cost
	// of depth: InFlight × one partition's footprint.
	DeviceBytes int64
	// Chunks sums the data-parallel chunks of every partition parse.
	Chunks int
	// InFlight is the ring depth the run actually used (1 for the
	// serial pipeline).
	InFlight int
	// SerialFallbacks counts the non-final partitions whose record
	// boundary could not be pre-scanned and that therefore parsed
	// inline on the scheduler (the serial carry path).
	SerialFallbacks int
	// InvalidInput reports that some partition's parse flagged invalid
	// input (PartitionResult.Invalid).
	InvalidInput bool
	// RowsPruned is the total number of rows pruned by Where predicates
	// across all partitions (PartitionResult.RowsPruned summed).
	RowsPruned int64
	// BytesSkipped is the total number of symbol bytes the partition
	// scatters never moved (PartitionResult.BytesSkipped summed).
	BytesSkipped int64
	// Retries is the number of source read attempts that failed and
	// were retried under the run's RetryPolicy; RetriedBytes is the
	// bytes recovered by reads that succeeded after at least one retry.
	Retries      int64
	RetriedBytes int64
	// QuarantinedPartitions counts partitions whose parse failed and
	// was quarantined under Config.SkipBadPartitions instead of failing
	// the run; QuarantinedRecords counts individual malformed records
	// diverted to the caller's bad-record callback.
	QuarantinedPartitions int
	QuarantinedRecords    int64
	// ReadBusy is the time the ring's scheduler spent pulling input from
	// the source; BoundaryBusy is the time spent in record-boundary
	// pre-scans; EmitBusy is the time the ring's emit stage spent
	// releasing tables. With ParseBusy (which sums concurrent parses and
	// so can exceed Duration under the ring) these expose each stage's
	// busy share of the run. The serial pipeline reports only ParseBusy.
	ReadBusy     time.Duration
	BoundaryBusy time.Duration
	EmitBusy     time.Duration
}

// Result is the outcome of a streaming run: one table per partition (in
// input order, unless Config.Unordered) plus run statistics.
type Result struct {
	Tables []*columnar.Table
	// Order maps each emitted table to its partition's input index; it
	// is set only for unordered runs (nil means Tables is in input
	// order).
	Order []int
	Stats Stats
}

// quarantinable reports whether a partition-parse failure may be
// contained to that partition under Config.SkipBadPartitions: contained
// panics and validation failures qualify; reader failures, budget
// denials, and cancellation describe the run, not one partition, and
// boundary disagreements poison the carry chain of every later
// partition — none of those can be skipped.
func quarantinable(err error) bool {
	var ie *parparawerr.InternalError
	if errors.As(err, &ie) && ie.Stage == "boundary" {
		return false
	}
	return errors.Is(err, parparawerr.ErrInternal) || errors.Is(err, parparawerr.ErrMalformed)
}

// safeParse runs one partition parse with panic containment: a panic in
// the parser (including device-kernel panics re-raised on the calling
// goroutine) is recovered into a typed parparawerr.InternalError
// carrying the partition index and the stack, so the pipeline fails (or
// quarantines) cleanly instead of killing the process. The
// fault-injection ring hook fires here, on every parse path.
func safeParse(parse func() (PartitionResult, error), idx int) (res PartitionResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			stage, val := "ring", r
			var stack []byte
			if kp, ok := r.(*device.KernelPanic); ok {
				stage, val, stack = "kernel", kp.Value, kp.Stack
			} else {
				stack = debug.Stack()
			}
			err = &parparawerr.InternalError{Partition: idx, Stage: stage, Value: val, Stack: stack}
			res = PartitionResult{}
		}
	}()
	faultinject.RingParse(idx)
	return parse()
}

// tagInputError stamps the failing partition's index into a typed
// source failure and wraps it with the stream prefix.
func tagInputError(err error, idx int) error {
	var ie *parparawerr.InputError
	if errors.As(err, &ie) && ie.Partition == parparawerr.NoPartition {
		ie.Partition = idx
	}
	return fmt.Errorf("stream: reading input: %w", err)
}

// chunk is one fixed-size host buffer's worth of raw input on its way
// from the Source to a partition parse.
type chunk struct {
	buf  int    // index of the double buffer holding the bytes
	data []byte // the chunk's bytes (a prefix of the buffer)
	last bool   // the source is exhausted after this chunk
	err  error  // source read error (data/last are then meaningless)
}

// Run streams the source through the pipeline. It returns the
// per-partition tables in input order. On failure the returned Result,
// when non-nil, holds the tables emitted and the statistics accumulated
// before the failure — partial progress a caller can still report.
//
// A reader goroutine pulls PartitionSize-byte chunks from the source
// into two recycled host buffers (the Figure 7 raw-input double
// buffer). The calling goroutine assembles each partition's parse
// input — a fixed-size buffer holding the carry-over followed by fresh
// chunk bytes (the "copy c/o" step), sized so the total stays at
// PartitionSize — and parses it; a chunk's host buffer is recycled only
// after the parse that consumed its final byte completes, preserving
// the figure's "read i+2 waits on parse i" dependency. Fixed-size parse
// inputs keep every buffer in the same arena size class across
// partitions — the paper's allocate-once-reuse-per-partition
// footprint. Only a carry-over of PartitionSize or more (one record
// larger than a partition) grows the parse buffer beyond PartitionSize.
func Run(cfg Config, parser Parser, src *Source) (*Result, error) {
	if cfg.PartitionSize <= 0 {
		return nil, errors.New("stream: partition size must be positive")
	}
	src.SetRetry(cfg.Retry)
	if cfg.InFlight > 1 && cfg.Arenas != nil {
		if rp, ok := parser.(RingParser); ok {
			return runRing(cfg, rp, src)
		}
	}
	ctx := cfg.ctx()

	start := time.Now()

	// Double-buffer tokens: values are buffer indexes. The read two
	// chunks ahead waits until the parse consuming chunk i releases its
	// buffer.
	inputTokens := make(chan int, 2)
	inputTokens <- 0
	inputTokens <- 1

	chunks := make(chan chunk, 2) // filled chunks awaiting consumption
	quit := make(chan struct{})   // closed on return so the reader exits
	defer close(quit)

	// Reader: pull fixed-size chunks from the source. The two chunk
	// buffers here are the run's entire host-side input footprint; they
	// grow geometrically toward PartitionSize (Source.Fill), so a source
	// smaller than a partition never pays for full-size buffers.
	go func() {
		defer close(chunks)
		var bufs [2][]byte
		for {
			var idx int
			select {
			case idx = <-inputTokens:
			case <-quit:
				return
			}
			data, last, err := src.Fill(bufs[idx], cfg.PartitionSize)
			bufs[idx] = data
			select {
			case chunks <- chunk{buf: idx, data: data, last: last, err: err}:
			case <-quit:
				return
			}
			if last || err != nil {
				return
			}
		}
	}()

	stats := Stats{InFlight: 1}
	var tables []*columnar.Table
	finish := func(err error) (*Result, error) {
		stats.Duration = time.Since(start)
		stats.DeviceBytes = cfg.Arena.PeakBytes()
		stats.Retries, stats.RetriedBytes = src.RetryStats()
		return &Result{Tables: tables, Stats: stats}, err
	}

	// Parse (serial across partitions, but internally parallel).
	rp, _ := parser.(RingParser)
	stalled := false // the previous partition held no complete record
	// walked bytes of an idle carry end the boundary walk in walkState
	// (RingParser.Idle).
	walked, walkState := 0, 0
	var carry []byte
	var base int64 // stream offset of the current carry/partition start
	var cur chunk  // current chunk being consumed
	curOff := 0    // bytes of cur already consumed
	haveChunk := false
	exhausted := false // the source's last chunk has been fully consumed
	var spent []int    // buffers drained by this partition, recycled after its parse
	var segs [][]byte  // fresh chunk segments of the partition being assembled
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return finish(fmt.Errorf("stream: %w", parparawerr.Canceled(i, err)))
		}
		// The carry-over displaces fresh input so carry + fresh fills
		// one fixed PartitionSize buffer; a carry of a full partition
		// or more (one record larger than a partition) still makes
		// PartitionSize bytes of progress.
		need := cfg.PartitionSize - len(carry)
		if need <= 0 {
			need = cfg.PartitionSize
		}

		// Gather the partition's fresh bytes as segments of the chunk
		// buffers first (they stay stable until the post-parse token
		// release below), so the parse buffer can be allocated at its
		// exact final size.
		segs = segs[:0]
		got := 0
		for got < need && !exhausted {
			if !haveChunk {
				c := <-chunks // the reader sends a last or failed chunk before it exits
				if c.err != nil {
					return finish(tagInputError(c.err, i))
				}
				stats.InputBytes += int64(len(c.data))
				cur, curOff, haveChunk = c, 0, true
			}
			take := need - got
			if avail := len(cur.data) - curOff; take > avail {
				take = avail
			}
			if take > 0 {
				segs = append(segs, cur.data[curOff:curOff+take])
			}
			got += take
			curOff += take
			if curOff == len(cur.data) {
				haveChunk = false
				spent = append(spent, cur.buf)
				if cur.last {
					exhausted = true
				}
			}
		}
		final := exhausted && !haveChunk

		if stalled && !final && rp != nil {
			// Still inside one record? Grow the carry by the fresh
			// bytes and resume the boundary walk over them alone.
			for _, seg := range segs {
				carry = append(carry, seg...)
			}
			segs = segs[:0]
			for _, b := range spent {
				inputTokens <- b
			}
			spent = spent[:0]
			var idle bool
			if walkState, idle = rp.Idle(carry, walked, walkState); idle {
				// Carry the partition whole without parsing it.
				walked = len(carry)
				stats.Partitions++
				stats.MaxCarryOver = max(stats.MaxCarryOver, len(carry))
				continue
			}
			walked = 0
		}

		// Recycle the previous partition's buffers: nothing transient
		// outlives a partition parse (tables and the carry copy live on
		// the heap), so from here on this partition reuses its
		// predecessor's allocations.
		cfg.Arena.Reset()
		// Assemble carry-over + fresh chunk bytes (the "copy c/o" step)
		// in the partition's input buffer.
		buf := device.Alloc[byte](cfg.Arena, len(carry)+got)[:0]
		buf = append(buf, carry...)
		for _, seg := range segs {
			buf = append(buf, seg...)
		}

		parseStart := time.Now()
		part := Partition{Index: i, Base: base, Input: buf, Final: final}
		res, err := safeParse(func() (PartitionResult, error) {
			return parser.ParsePartition(part)
		}, i)
		stats.ParseBusy += time.Since(parseStart)
		stats.Partitions++
		if err == nil && !final && (res.CompleteBytes < 0 || res.CompleteBytes > len(buf)) {
			err = fmt.Errorf("complete bytes %d outside [0,%d]: %w", res.CompleteBytes, len(buf),
				&parparawerr.InternalError{Partition: i, Stage: "ring"})
		}
		// The drained chunks free host input capacity now that the parse
		// consuming them is over (their bytes live on in the parse
		// buffer and the carry copy only).
		for _, b := range spent {
			inputTokens <- b
		}
		spent = spent[:0]
		if err != nil {
			if !cfg.SkipBadPartitions || !quarantinable(err) {
				return finish(fmt.Errorf("stream: partition %d: %w", i, err))
			}
			// Quarantine: drop the partition (and the pending carry —
			// its boundary is unknown) and continue.
			stats.QuarantinedPartitions++
			base += int64(len(buf))
			carry = carry[:0]
			stalled = false
			if final {
				break
			}
			continue
		}
		if res.Invalid {
			stats.InvalidInput = true
		}
		stats.RowsPruned += res.RowsPruned
		stats.BytesSkipped += res.BytesSkipped
		stats.QuarantinedRecords += res.BadRecords
		stats.Chunks += res.Chunks
		if res.Table != nil {
			stats.OutputBytes += res.Table.DataBytes()
			tables = append(tables, res.Table)
		}
		if final {
			break
		}
		stalled = res.CompleteBytes == 0
		base += int64(res.CompleteBytes)
		carry = append(carry[:0], buf[res.CompleteBytes:]...)
		if len(carry) > stats.MaxCarryOver {
			stats.MaxCarryOver = len(carry)
		}
	}
	return finish(nil)
}
