// ring.go is the scheduler: up to Config.InFlight partitions run the
// whole kernel pipeline concurrently, each on its own arena, with an
// emit stage releasing tables in input order.
//
// The enabler is breaking the carry-over dependency: partition i+1's
// input cannot be assembled until partition i's parse reports how many
// of its bytes belong to complete records. A deeper ring instead runs a
// record-boundary pre-scan (RingParser.Boundary — a sequential walk of
// the parsing DFA over the partition) that yields the same carry length
// at a fraction of the parse's cost, so the scheduler finalises
// partition i+1's input and dispatches partition i to a worker without
// waiting. Whenever the boundary is not determinable without the full
// parse (first-partition header/skip trimming still unsettled, input
// needing transcoding before record boundaries exist), the partition
// falls back to the inline carry path: it parses on the scheduler
// itself. Depth 1 takes that path for every partition without
// pre-scanning: with no second slot to dispatch into, the walk would
// only lengthen the critical path.
//
// Memory stays bounded at ring depth × partition footprint: at most
// InFlight partitions hold an arena at once (arenas recycle through a
// free list as partitions retire), and an optional DeviceBudget gates
// admission on the estimated in-flight device bytes.
//
// Failure containment: worker panics are recovered into typed
// parparawerr.InternalError values (safeParse), a canceled context
// unblocks both the scheduler's slot wait and the budget's admission
// wait, and every exit path still drains the results channel — so
// arenas and slots are recycled and no goroutine leaks, whatever the
// failure. Partitions whose record boundary was pre-scanned can be
// quarantined under Config.SkipBadPartitions without disturbing their
// neighbours: the carry chain was finalised before the worker ran.

package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/columnar"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/parparawerr"
)

// parsedPart is one partition's outcome on its way to the emit stage.
type parsedPart struct {
	idx   int
	res   PartitionResult
	arena *device.Arena
	est   int64 // device-budget charge taken at dispatch
	dur   time.Duration
	err   error
	// skipped marks a quarantined partition: its output is dropped and
	// the emit stage only counts it.
	skipped bool
}

// deviceBudget gates partition admission on estimated in-flight device
// bytes. The estimate for a new partition is the larger of its input
// size and the biggest per-partition arena footprint observed so far;
// a partition is always admitted when nothing is in flight, so the run
// progresses even under a budget smaller than one partition — unless
// the budget is strict, in which case an over-budget partition is
// denied with a typed parparawerr.BudgetError instead.
type deviceBudget struct {
	limit  int64
	strict bool
	mu     sync.Mutex
	cond   *sync.Cond
	used   int64
	peak   int64
	// cancelErr, once set, permanently fails every waiting and future
	// charge — the run is shutting down and blocked admissions must not
	// outlive it.
	cancelErr error
}

func newDeviceBudget(limit int64, strict bool) *deviceBudget {
	b := &deviceBudget{limit: limit, strict: strict}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// cancel fails all waiting and future charges with err (first cancel
// wins). Safe to call from any goroutine.
func (b *deviceBudget) cancel(err error) {
	b.mu.Lock()
	if b.cancelErr == nil {
		b.cancelErr = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// charge blocks until the partition fits under the budget and returns
// the amount charged (0 when no budget is configured). It fails with
// the cancellation error when the run is shutting down, and — under a
// strict budget — with a typed BudgetError when the partition could
// never fit.
func (b *deviceBudget) charge(partition, inputLen int) (int64, error) {
	if b.limit <= 0 {
		return 0, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	est := int64(inputLen)
	if b.peak > est {
		est = b.peak
	}
	// Arena-pressure injection: the chaos suite inflates estimates here
	// to drive the budget-exhaustion paths without gigabyte inputs.
	est = faultinject.BudgetCharge(partition, est)
	if b.strict && est > b.limit {
		return 0, &parparawerr.BudgetError{Partition: partition, Estimate: est, Budget: b.limit}
	}
	for b.cancelErr == nil && b.used > 0 && b.used+est > b.limit {
		b.cond.Wait()
	}
	if b.cancelErr != nil {
		return 0, b.cancelErr
	}
	b.used += est
	return est, nil
}

// refund returns a retired partition's charge and folds its actual
// arena footprint into the estimate for future admissions.
func (b *deviceBudget) refund(est, arenaPeak int64) {
	if b.limit <= 0 {
		return
	}
	b.mu.Lock()
	b.used -= est
	if arenaPeak > b.peak {
		b.peak = arenaPeak
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Run streams the source through the bounded in-flight partition ring
// and returns the per-partition tables in input order (unless
// Config.Unordered). On failure the returned Result, when non-nil,
// holds the tables emitted and the statistics accumulated before the
// failure — partial progress a caller can still report.
//
// Results are identical at every depth: the carry chain is the same
// (the pre-scan computes the very remainder the parse would report, and
// dispatched parses are cross-checked against it), every partition
// parses the same input bytes, and ordered emit preserves input order.
// Each partition's input buffer holds PartitionSize bytes (carry-over
// displaces fresh input), which keeps every buffer in the same arena
// size class across partitions — the paper's allocate-once,
// reuse-per-partition footprint. Only a carry-over of PartitionSize or
// more (one record larger than a partition) grows it beyond that.
func Run(cfg Config, parser RingParser, src *Source) (*Result, error) {
	if cfg.PartitionSize <= 0 {
		return nil, errors.New("stream: partition size must be positive")
	}
	if cfg.Arenas == nil {
		return nil, errors.New("stream: no arena pool")
	}
	src.SetRetry(cfg.Retry)
	ctx := cfg.ctx()
	start := time.Now()

	inFlight := max(cfg.InFlight, 1)
	// slots bounds the partitions concurrently holding an arena; a slot
	// is taken before a partition's input is assembled and released when
	// its result reaches the emit stage.
	slots := make(chan struct{}, inFlight)
	for i := 0; i < inFlight; i++ {
		slots <- struct{}{}
	}
	arenaFree := make(chan *device.Arena, inFlight) // retired arenas awaiting reuse
	results := make(chan parsedPart, inFlight+1)
	quit := make(chan struct{})
	var quitOnce sync.Once
	stop := func() { quitOnce.Do(func() { close(quit) }) }
	budget := newDeviceBudget(cfg.DeviceBudget, cfg.StrictBudget)

	// Cancellation watcher: a canceled context must unblock the
	// scheduler wherever it waits — the slot select (quit) and the
	// budget's admission wait (budget.cancel). The watcher itself is
	// joined before Run returns.
	watchDone := make(chan struct{})
	defer close(watchDone)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				budget.cancel(parparawerr.Canceled(parparawerr.NoPartition, ctx.Err()))
				stop()
			case <-watchDone:
			}
		}()
	}

	stats := Stats{InFlight: inFlight}
	var tables []*columnar.Table
	var order []int
	var arenas []*device.Arena // every arena drawn from cfg.Arenas
	done := make(chan error, 1)

	// Emit stage: retires partitions as they arrive — recycling their
	// arena and slot immediately, since tables live on the host heap —
	// and releases tables in input order (or arrival order when
	// Unordered, recording the permutation).
	go func() {
		var firstErr error
		errIdx := -1
		pending := make(map[int]parsedPart)
		next := 0
		emit := func(p parsedPart) {
			if p.res.Table == nil {
				return
			}
			eb := time.Now()
			stats.OutputBytes += p.res.Table.DataBytes()
			tables = append(tables, p.res.Table)
			if cfg.Unordered {
				order = append(order, p.idx)
			}
			stats.EmitBusy += time.Since(eb)
		}
		for p := range results {
			if p.arena != nil {
				// Slot and arena travel together: results without an
				// arena (source read errors, idle partitions) never
				// took a slot.
				budget.refund(p.est, p.arena.PeakBytes())
				arenaFree <- p.arena
				slots <- struct{}{}
			}
			stats.ParseBusy += p.dur
			if p.err != nil {
				if firstErr == nil || p.idx < errIdx {
					firstErr, errIdx = p.err, p.idx
				}
				stop()
				continue
			}
			if p.skipped {
				stats.QuarantinedPartitions++
			}
			if p.res.Invalid {
				stats.InvalidInput = true
			}
			stats.RowsPruned += p.res.RowsPruned
			stats.BytesSkipped += p.res.BytesSkipped
			stats.QuarantinedRecords += p.res.BadRecords
			stats.Chunks += p.res.Chunks
			if firstErr != nil {
				continue
			}
			if cfg.Unordered {
				emit(p)
				continue
			}
			pending[p.idx] = p
			for {
				q, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				emit(q)
				next++
			}
		}
		done <- firstErr
	}()

	// parse runs one partition on its arena and packages the outcome for
	// the emit stage. want is the complete-byte count the boundary
	// pre-scan found, or -1 when only the parse determines it. A
	// quarantinable failure under SkipBadPartitions comes back skipped.
	parse := func(arena *device.Arena, part Partition, est int64, want int) parsedPart {
		ps := time.Now()
		res, err := safeParse(func() (PartitionResult, error) {
			return parser.ParseInFlight(arena, part)
		}, part.Index)
		p := parsedPart{idx: part.Index, res: res, arena: arena, est: est, dur: time.Since(ps)}
		switch {
		case err != nil, part.Final:
		case want >= 0 && res.CompleteBytes != want:
			// The pre-scan and the parse must agree by construction; a
			// mismatch means corrupt output, so fail loudly instead.
			err = fmt.Errorf("boundary pre-scan found %d complete bytes, parse found %d: %w",
				want, res.CompleteBytes, &parparawerr.InternalError{Partition: part.Index, Stage: "boundary"})
		case res.CompleteBytes < 0 || res.CompleteBytes > len(part.Input):
			err = fmt.Errorf("complete bytes %d outside [0,%d]: %w", res.CompleteBytes, len(part.Input),
				&parparawerr.InternalError{Partition: part.Index, Stage: "ring"})
		}
		if err != nil && cfg.SkipBadPartitions && quarantinable(err) {
			p.res, p.skipped = PartitionResult{}, true
		} else if err != nil {
			p.err = fmt.Errorf("stream: partition %d: %w", part.Index, err)
		}
		return p
	}

	// Scheduler: the single sequential spine. It reads each partition's
	// fresh bytes, assembles carry + fresh in a per-partition arena
	// buffer, and either pre-scans the record boundary to finalise the
	// next partition's carry and hands the parse to a worker, or parses
	// inline.
	var wg sync.WaitGroup
	go func() {
		defer func() {
			wg.Wait()
			close(results)
		}()
		var carry []byte
		var fill []byte
		var nextBase int64 // stream offset of the next partition's first byte
		stalled := false   // the previous partition held no complete record
		// walked bytes of an idle carry end the boundary walk in
		// walkState (RingParser.Idle).
		walked, walkState := 0, 0
		// advance moves the carry chain past a partition whose first
		// complete bytes of buf are consumed.
		advance := func(buf []byte, complete int) {
			carry = append(carry[:0], buf[complete:]...)
			stats.MaxCarryOver = max(stats.MaxCarryOver, len(carry))
			stalled = complete == 0
			nextBase += int64(complete)
		}
		for i := 0; ; i++ {
			canceled := func() bool {
				if err := ctx.Err(); err != nil {
					results <- parsedPart{idx: i, err: fmt.Errorf("stream: %w", parparawerr.Canceled(i, err))}
					return true
				}
				select {
				case <-quit:
					return true
				default:
					return false
				}
			}
			if canceled() {
				return
			}
			// The carry-over displaces fresh input so carry + fresh fills
			// one fixed PartitionSize buffer (NextFresh's contract).
			need := cfg.PartitionSize - len(carry)
			if need <= 0 {
				need = cfg.PartitionSize
			}
			rb := time.Now()
			data, last, err := src.Fill(fill, need)
			fill = data
			stats.ReadBusy += time.Since(rb)
			if err != nil {
				results <- parsedPart{idx: i, err: tagInputError(err, i)}
				return
			}
			stats.InputBytes += int64(len(data))
			final := last

			if stalled && !final {
				// Still inside one record? Grow the carry by the fresh
				// bytes and resume the boundary walk over them alone.
				carry = append(carry, data...)
				data = data[:0]
				bb := time.Now()
				var idle bool
				walkState, idle = parser.Idle(carry, walked, walkState)
				stats.BoundaryBusy += time.Since(bb)
				if idle {
					// Carry the partition whole without parsing it: it
					// takes no slot or arena, and its empty result keeps
					// the emit stage's input order.
					walked = len(carry)
					stats.Partitions++
					stats.MaxCarryOver = max(stats.MaxCarryOver, len(carry))
					results <- parsedPart{idx: i}
					continue
				}
				walked = 0
			}

			select {
			case <-slots:
			case <-quit:
				canceled() // report the cancellation, if that is why we stopped
				return
			}
			var arena *device.Arena
			select {
			case arena = <-arenaFree:
			default:
				arena = cfg.Arenas.Get()
				arenas = append(arenas, arena)
			}
			// The retired partition that released this arena is fully on
			// the host heap; reclaim its buffers for this partition.
			arena.Reset()
			buf := device.Alloc[byte](arena, len(carry)+len(data))[:0]
			buf = append(buf, carry...)
			buf = append(buf, data...)
			stats.Partitions++
			part := Partition{Index: i, Base: nextBase, Input: buf, Final: final}

			want := -1
			if !final && inFlight > 1 {
				bb := time.Now()
				rem, ok := parser.Boundary(buf)
				stats.BoundaryBusy += time.Since(bb)
				if ok && rem >= 0 && rem <= len(buf) {
					want = len(buf) - rem
				} else {
					stats.SerialFallbacks++
				}
			}
			est, err := budget.charge(i, len(buf))
			if err != nil {
				results <- parsedPart{idx: i, arena: arena, err: fmt.Errorf("stream: partition %d: %w", i, err)}
				return
			}
			if want >= 0 || final {
				// The next partition's input is final without the parse
				// (or there is none): copy the carry tail out (buf is
				// arena memory owned by the worker from here) and
				// dispatch. The final partition goes to a worker too, so
				// the scheduler's buffers are garbage while it parses.
				if !final {
					advance(buf, want)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					results <- parse(arena, part, est, want)
				}()
				if final {
					return
				}
				continue
			}
			// Inline carry path: the boundary needs the full parse, or the
			// ring is one deep.
			p := parse(arena, part, est, -1)
			if p.err != nil {
				results <- p
				return
			}
			complete := p.res.CompleteBytes
			if p.skipped {
				// The partition's boundary was never determined, so the
				// pending carry is dropped with it and the next partition
				// starts fresh.
				complete = len(buf)
			}
			advance(buf, complete)
			results <- p
		}
	}()

	err := <-done
	for _, a := range arenas {
		stats.DeviceBytes += a.PeakBytes()
		cfg.Arenas.Put(a)
	}
	stats.Duration = time.Since(start)
	stats.Retries, stats.RetriedBytes = src.RetryStats()
	return &Result{Tables: tables, Order: order, Stats: stats}, err
}
