// Package stream implements the end-to-end streaming extension of §4.4 /
// Figure 7: raw input is pulled from a Source in fixed-size chunks and
// parsed partition by partition. Run is the one scheduler. Its
// sequential spine reads each partition's fresh bytes, assembles the
// carry-over followed by the fresh input in an arena buffer (the
// figure's "copy c/o" step), and either parses it inline or hands it to
// a worker; at most Config.InFlight partitions hold an arena at once,
// and an emit stage releases their tables in input order. At depth 1
// every partition parses inline on the spine: the paper's
// partition-at-a-time schedule on one recycled arena. Deeper rings
// pre-scan each partition's record boundary so the next partition's
// input is final before the parse runs (ring.go). Peak host buffering
// is therefore O(InFlight × (PartitionSize + carry-over)), independent
// of the input's total size — the property that lets the system ingest
// inputs larger than memory. The paper's device additionally pays a
// PCIe transfer per partition in each direction; this pipeline runs on
// the host and has no interconnect, so the transfers exist only in the
// analytical schedule of Simulate (the Figure 12/13 experiments).
//
// The carry-over handles records straddling partition boundaries: the
// parse of partition i reports how many of its bytes belong to complete
// records; the incomplete tail is prepended to partition i+1's input.
//
// Failure model: every failure class surfaces as a typed parparawerr
// error — reader failures (after the Source's RetryPolicy is exhausted)
// as ErrInput with the exact byte offset, validation failures as
// ErrMalformed, context cancellation as ErrCanceled, contained worker
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
	// InFlight is the number of partitions the ring keeps in flight at
	// once; values below 1 mean 1. At 1 every partition parses inline on
	// the scheduler and Boundary is never called.
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
	// DeviceBudget, instead of admitting it anyway.
	StrictBudget bool
	// SkipBadPartitions quarantines parse-side failures (contained
	// panics, validation errors) instead of failing the run: the
	// partition's output is dropped, Stats.QuarantinedPartitions
	// counts it, and the stream continues. When the failed partition's
	// record boundary was pre-scanned (a dispatched partition) the
	// carry chain is intact and no neighbouring record is affected;
	// when it was not (the inline carry path), the pending carry is
	// dropped with the partition, so a record straddling into it may
	// also lose its head. Reader failures and cancellation are never
	// quarantined.
	SkipBadPartitions bool
	// Arenas supplies one arena per in-flight partition. It is required.
	// Every arena acquired during the run is returned before Run
	// returns.
	Arenas ArenaPool
}

func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// ArenaPool supplies device arenas to the scheduler, one per in-flight
// partition. The public Engine's pool of recycled arenas is the
// motivating implementation.
type ArenaPool interface {
	Get() *device.Arena
	Put(*device.Arena)
}

// RingParser is the scheduler's parser contract. It must (a) parse on
// a caller-supplied arena, so several partitions can be in flight at
// once, and (b) pre-scan a partition's record boundary, so the next
// partition's input can be finalised without waiting for the full
// parse. ParseInFlight must be safe for concurrent calls on distinct
// arenas whenever Boundary reported ok for the partitions involved.
type RingParser interface {
	// Boundary returns the carry-over tail length a parse of input
	// would report, when that is determinable without a full parse
	// (ok=false falls the partition back to the inline carry path —
	// e.g. while first-partition trimming is unsettled or the input
	// needs transcoding before record boundaries exist).
	Boundary(input []byte) (remainder int, ok bool)
	// Idle reports whether input, a carry that held no complete record
	// plus the fresh bytes appended to it, still holds none, so that a
	// parse would report nothing but the whole input as carry-over.
	// Its walk resumes at input[from:] in state, the end it returned
	// when input[:from] was idle (from 0 walks from the start). When
	// the previous partition held no complete record either, the
	// scheduler carries an idle partition whole into the next without
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
	// DeviceBytes sums the peak footprints of every arena the run drew
	// — the memory cost of depth: InFlight × one partition's footprint,
	// and at depth 1 the peak of the run's single arena.
	DeviceBytes int64
	// Chunks sums the data-parallel chunks of every partition parse.
	Chunks int
	// InFlight is the ring depth the run actually used.
	InFlight int
	// SerialFallbacks counts the non-final partitions whose record
	// boundary could not be pre-scanned and that therefore parsed
	// inline on the scheduler (the inline carry path). Depth 1 never
	// pre-scans, so it reports 0.
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
	// ReadBusy is the time the scheduler spent pulling input from the
	// source; BoundaryBusy is the time spent in record-boundary
	// pre-scans; EmitBusy is the time the emit stage spent releasing
	// tables. With ParseBusy (which sums concurrent parses and so can
	// exceed Duration when InFlight > 1) these expose each stage's busy
	// share of the run.
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
