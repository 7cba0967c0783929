package stream

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/parparawerr"
)

func TestRunReassemblesRecordsAcrossPartitions(t *testing.T) {
	var sb strings.Builder
	want := []string{}
	for i := 0; i < 100; i++ {
		line := strings.Repeat("x", i%37+1)
		want = append(want, line)
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	input := []byte(sb.String())

	for _, partSize := range []int{7, 16, 64, 100, len(input), len(input) * 2} {
		res, err := Run(Config{PartitionSize: partSize, Arenas: &testArenaPool{}}, newRingLineParser(), BytesSource(input))
		if err != nil {
			t.Fatalf("partSize=%d: %v", partSize, err)
		}
		var got []string
		for _, tbl := range res.Tables {
			col := tbl.Column(0)
			for r := 0; r < col.Len(); r++ {
				got = append(got, string(col.StringValue(r)))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("partSize=%d: %d records, want %d", partSize, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("partSize=%d record %d = %q, want %q", partSize, i, got[i], want[i])
			}
		}
		// Fixed-size partition buffers: the carry-over displaces fresh
		// input, so the parse count is at least the transfer count and
		// bounded by one parse per record in the worst case.
		minParts := (len(input) + partSize - 1) / partSize
		if minParts == 0 {
			minParts = 1
		}
		if res.Stats.Partitions < minParts {
			t.Errorf("partSize=%d: partitions = %d, want >= %d", partSize, res.Stats.Partitions, minParts)
		}
		if res.Stats.InputBytes != int64(len(input)) {
			t.Errorf("input bytes = %d", res.Stats.InputBytes)
		}
	}
}

func TestRunCarryOverContent(t *testing.T) {
	// Partition size 10 splits "abcdefgh\nijklmnop\n" mid-record; the
	// parser must see the carried bytes prepended.
	input := []byte("abcdefgh\nijklmnop\n")
	p := newRingLineParser()
	_, err := Run(Config{PartitionSize: 10, Arenas: &testArenaPool{}}, p, BytesSource(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.partitions) != 2 {
		t.Fatalf("parser saw %d partitions", len(p.partitions))
	}
	if string(p.partitions[0]) != "abcdefgh\ni" {
		t.Errorf("partition 0 input = %q", p.partitions[0])
	}
	if string(p.partitions[1]) != "ijklmnop\n" {
		t.Errorf("partition 1 input = %q (carry-over not prepended)", p.partitions[1])
	}
}

func TestRunGiantRecordSpanningPartitions(t *testing.T) {
	// One record larger than several partitions: carry-over must keep
	// growing until the delimiter arrives.
	record := strings.Repeat("y", 350)
	input := []byte(record + "\nz\n")
	res, err := Run(Config{PartitionSize: 100, Arenas: &testArenaPool{}}, newRingLineParser(), BytesSource(input))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tbl := range res.Tables {
		col := tbl.Column(0)
		for r := 0; r < col.Len(); r++ {
			got = append(got, string(col.StringValue(r)))
		}
	}
	if len(got) != 2 || got[0] != record || got[1] != "z" {
		t.Fatalf("records reassembled wrong: %d records", len(got))
	}
	if res.Stats.MaxCarryOver < 300 {
		t.Errorf("max carry-over = %d, want >= 300", res.Stats.MaxCarryOver)
	}
}

func TestRunEmptyInput(t *testing.T) {
	res, err := Run(Config{PartitionSize: 10, Arenas: &testArenaPool{}}, newRingLineParser(), BytesSource(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Partitions != 1 {
		t.Errorf("partitions = %d, want 1 (single empty partition)", res.Stats.Partitions)
	}
}

func TestRunParserError(t *testing.T) {
	p := newRingLineParser()
	p.failAt = 0
	_, err := Run(Config{PartitionSize: 4, Arenas: &testArenaPool{}}, p, BytesSource([]byte("abcdefgh")))
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want wrapped injected failure", err)
	}
}

// overclaimParser reports more complete bytes than its input holds.
type overclaimParser struct{ *ringLineParser }

func (p overclaimParser) ParseInFlight(arena *device.Arena, part Partition) (PartitionResult, error) {
	res, err := p.ringLineParser.ParseInFlight(arena, part)
	res.CompleteBytes = len(part.Input) + 5
	return res, err
}

func TestRunBadCompleteBytes(t *testing.T) {
	parser := overclaimParser{newRingLineParser()}
	parser.ambiguous = true // no pre-scan to cross-check against: only the range check can catch it
	for _, inFlight := range []int{1, 2} {
		_, err := Run(Config{PartitionSize: 4, InFlight: inFlight, Arenas: &testArenaPool{}}, parser, BytesSource([]byte("abcdefgh")))
		if !errors.Is(err, parparawerr.ErrInternal) {
			t.Fatalf("inflight=%d: err = %v, want ErrInternal for out-of-range CompleteBytes", inFlight, err)
		}
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{PartitionSize: 0, Arenas: &testArenaPool{}}, newRingLineParser(), BytesSource(nil)); err == nil {
		t.Error("want error for zero partition size")
	}
	if _, err := Run(Config{PartitionSize: 4}, newRingLineParser(), BytesSource(nil)); err == nil {
		t.Error("want error for a missing arena pool")
	}
}

// slowReader is a source whose reads take real time in proportion to
// the bytes they return, like a disk or a socket.
type slowReader struct {
	input   []byte
	perByte time.Duration
}

func (r *slowReader) Read(p []byte) (int, error) {
	if len(r.input) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.input)
	r.input = r.input[n:]
	time.Sleep(time.Duration(n) * r.perByte)
	return n, nil
}

// TestStreamingScheduleOverlap is the Figure 7 behaviour test: with a
// slow source and a slow parser, total pipeline time at depth 2 must be
// well below a *measured* serial execution of the same reads and
// parses, proving the read of the next partition overlaps the parse of
// the current one. (Depth 1 parses inline, so it does not overlap.) Comparing against a serial run performed under the same
// machine load (rather than against the nominal sum of sleep durations)
// keeps the test stable when timers are inflated by a busy CI host —
// the inflation applies to both runs.
func TestStreamingScheduleOverlap(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-sensitive; race instrumentation distorts the schedule")
	}
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	const partSize = 1000
	const partitions = 6
	input := make([]byte, partitions*partSize)
	for i := range input {
		input[i] = 'a'
		if i%100 == 99 {
			input[i] = '\n'
		}
	}
	const delay = 15 * time.Millisecond
	parser := &slowRingParser{newRingLineParser(), delay}

	// Nominal: serial 6 × 30ms = 180ms, pipelined ~(15 + 6×15)ms =
	// 105ms. A loaded single-core CI host can inflate either run
	// arbitrarily, so measure a serial baseline alongside each attempt
	// and accept any attempt showing a ≥20% win.
	var lastPipe, lastSerial time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		serialStart := time.Now()
		for i := 0; i < partitions; i++ {
			time.Sleep(delay) // read
			time.Sleep(delay) // parse
		}
		serial := time.Since(serialStart)

		src := NewSource(&slowReader{input: input, perByte: delay / partSize})
		res, err := Run(Config{PartitionSize: partSize, InFlight: 2, Arenas: &testArenaPool{}}, parser, src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ParseBusy < partitions*delay {
			t.Fatalf("parse busy = %v, want >= %v", res.Stats.ParseBusy, partitions*delay)
		}
		if res.Stats.InputBytes != int64(len(input)) {
			t.Fatalf("input bytes = %d, want %d", res.Stats.InputBytes, len(input))
		}
		if res.Stats.Duration <= serial*4/5 {
			return // overlap demonstrated
		}
		lastPipe, lastSerial = res.Stats.Duration, serial
	}
	t.Errorf("pipeline took %v; no meaningful overlap vs measured serial %v (3 attempts)", lastPipe, lastSerial)
}
