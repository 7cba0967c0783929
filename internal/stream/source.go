package stream

import (
	"bytes"
	"io"
	"time"

	"repro/parparawerr"
)

// RetryPolicy makes a Source resilient to transient reader failures:
// a failed Read is retried in place — the source's byte accounting is
// exact, so the retry resumes at the exact offset the failed attempt
// targeted, with no loss and no duplication — up to MaxAttempts times
// with capped exponential backoff. Errors the classifier rejects (and
// exhausted retries) surface as a typed parparawerr.InputError carrying
// the offset.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts for one failing read
	// position (1 failed read + MaxAttempts-1 retries). Values <= 1
	// disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// attempt. Zero means 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means 250ms.
	MaxDelay time.Duration
	// Retryable classifies errors worth retrying. Nil retries every
	// error (still bounded by MaxAttempts). io.EOF is never retried.
	Retryable func(error) bool
	// Sleep replaces time.Sleep for the backoff (tests). Nil sleeps.
	Sleep func(time.Duration)
}

func (p RetryPolicy) retryable(err error) bool {
	if p.Retryable == nil {
		return true
	}
	return p.Retryable(err)
}

func (p RetryPolicy) backoff(failed int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	for i := 1; i < failed && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// Source feeds the streaming pipeline with raw input, one fixed-size
// chunk at a time. It adapts an io.Reader to the host side of Figure 7:
// the pipeline never sees (or buffers) more of the input than the
// chunks currently in flight, which is what lets the system ingest
// inputs that do not fit in memory. A Source is used by a single
// pipeline goroutine; it is not safe for concurrent Fill calls.
//
// Byte accounting is exact: bytes delivered by a Read that also
// returned an error are kept (the error is surfaced on the next read
// attempt, per the io.Reader contract), so a retried read resumes at
// precisely the failed offset and a permanent failure reports exactly
// how many bytes were consumed before it.
type Source struct {
	r      io.Reader
	peek   [1]byte
	peeked bool
	// head holds the stream's first bytes, not yet delivered, ahead of
	// r. Fill lends whole chunks of it without copying and never writes
	// into it; lent reports that the previous Fill returned such a
	// chunk, which the caller passes back as its next dst. Fill drops
	// head once it is consumed, so the caller's buffer can be collected
	// before the stream ends.
	head []byte
	lent bool

	retry RetryPolicy
	// pending is an error returned by a Read alongside data: the data
	// is consumed first and the error re-surfaces on the next read.
	pending error
	// failed, when non-nil, latches a permanent failure: every later
	// read returns it (a broken source does not heal mid-stream).
	failed error

	off          int64 // stream bytes read so far: all of head, then r's
	retries      int64 // failed read attempts that were retried
	retriedBytes int64 // bytes recovered by reads after >= 1 retry
}

// NewSource wraps an io.Reader.
func NewSource(r io.Reader) *Source { return &Source{r: r} }

// HeadSource is NewSource over head followed by r, for a caller that
// already read the stream's first bytes: chunks that lie within head
// are slices of it, not copies.
func HeadSource(head []byte, r io.Reader) *Source {
	return &Source{r: r, head: head, off: int64(len(head))}
}

// BytesSource adapts an in-memory input. It exists for callers (and
// tests) that already hold the whole input; the pipeline still consumes
// it chunk by chunk, exactly as it would a file.
func BytesSource(input []byte) *Source { return NewSource(bytes.NewReader(input)) }

// SetRetry installs the source's retry policy. Call before the first
// Fill.
func (s *Source) SetRetry(p RetryPolicy) { s.retry = p }

// Consumed returns the number of stream bytes successfully read so far,
// counting a HeadSource's head as read.
func (s *Source) Consumed() int64 { return s.off }

// RetryStats returns the retried-attempt count and the bytes recovered
// by reads that succeeded after at least one retry.
func (s *Source) RetryStats() (retries, retriedBytes int64) { return s.retries, s.retriedBytes }

// read is the retrying low-level read: it calls the underlying reader,
// keeps exact byte accounting, defers errors that accompany data, and
// retries failed attempts per the policy. A non-retryable or exhausted
// failure is returned as a typed *parparawerr.InputError and latched.
func (s *Source) read(p []byte) (int, error) {
	if s.failed != nil {
		return 0, s.failed
	}
	failures := 0
	for {
		var n int
		var err error
		if s.pending != nil {
			err, s.pending = s.pending, nil
		} else {
			n, err = s.r.Read(p)
			s.off += int64(n)
			if failures > 0 && n > 0 {
				s.retriedBytes += int64(n)
			}
		}
		if n > 0 {
			if err != nil && err != io.EOF {
				// Consume the data now; the error re-surfaces on the
				// next read, where the retry policy gets to see it.
				s.pending = err
				err = nil
			}
			return n, err
		}
		if err == nil {
			continue // Read is allowed to return (0, nil); try again
		}
		if err == io.EOF {
			return 0, io.EOF
		}
		failures++
		if failures >= s.retry.MaxAttempts || !s.retry.retryable(err) {
			s.failed = &parparawerr.InputError{
				Offset:    s.off,
				Partition: parparawerr.NoPartition,
				Attempts:  failures,
				Err:       err,
			}
			return 0, s.failed
		}
		s.retries++
		if d := s.retry.backoff(failures); d > 0 {
			if s.retry.Sleep != nil {
				s.retry.Sleep(d)
			} else {
				time.Sleep(d)
			}
		}
	}
}

// minChunkAlloc is the initial chunk-buffer capacity: buffers grow
// geometrically from here toward the chunk size, so a source smaller
// than the partition size never forces a partition-sized allocation.
const minChunkAlloc = 64 << 10

// Fill reads from the source until size bytes are buffered or the input
// ends. dst is the recycled backing buffer from a previous Fill (nil on
// first use); the filled bytes are returned as a slice of it, or of a
// geometrically grown replacement the caller should retain for reuse,
// or — while size bytes remain in a HeadSource's head — of the head
// itself. The second result reports whether the source is now
// exhausted; it is exact: when the chunk fills completely, Fill peeks
// one byte ahead (stashing it for the next call) so the pipeline knows
// immediately whether the chunk it just read is the input's last — the
// final partition must be parsed in trailing-record mode rather than
// carry-over mode, and that decision cannot wait for a later read.
func (s *Source) Fill(dst []byte, size int) (data []byte, last bool, err error) {
	if s.lent {
		dst, s.lent = nil, false // dst is part of the head: never write into it
	}
	if len(s.head) >= size {
		data, s.head = s.head[:size:size], s.head[size:]
		s.lent = true
		if len(s.head) > 0 {
			return data, false, nil
		}
		s.head = nil
		last, err := s.atEnd()
		return data, last, err
	}
	if cap(dst) > size {
		dst = dst[:size]
	} else {
		dst = dst[:cap(dst)]
	}
	n := 0
	for {
		if n == len(dst) {
			if n >= size {
				break
			}
			grow := 2 * n
			if grow < minChunkAlloc {
				grow = minChunkAlloc
			}
			if grow > size {
				grow = size
			}
			next := make([]byte, grow)
			copy(next, dst[:n])
			dst = next
		}
		if len(s.head) > 0 {
			m := copy(dst[n:], s.head)
			n += m
			if s.head = s.head[m:]; len(s.head) == 0 {
				s.head = nil
			}
			continue
		}
		if s.peeked {
			dst[n] = s.peek[0]
			s.peeked = false
			n++
			continue
		}
		m, err := s.read(dst[n:])
		n += m
		if err == io.EOF {
			return dst[:n], true, nil
		}
		if err != nil {
			return dst[:n], false, err
		}
	}
	last, err = s.atEnd()
	return dst[:n], last, err
}

// atEnd peeks one byte ahead, stashing it for the next Fill, and reports
// whether the source is exhausted.
func (s *Source) atEnd() (bool, error) {
	m, err := s.read(s.peek[:])
	if m > 0 {
		s.peeked = true
		return false, nil
	}
	if err == io.EOF {
		return true, nil
	}
	return false, err
}
