package parparaw

// Reader-vs-slice parity: StreamReader must produce cell-for-cell the
// same tables as Parse on the concatenated input, for every tagging
// mode, for UTF-16 content, and for partition sizes that split records,
// quoted fields, code units, and surrogate pairs — while never reading
// more than one partition's worth of bytes at a time from the source.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/stream"
	"repro/internal/workload"
)

// maxReadReader asserts the pipeline pulls input in bounded chunks: any
// single Read asking for more than limit bytes fails the test, which is
// exactly what an io.ReadAll-style slurp would do.
type maxReadReader struct {
	t     *testing.T
	r     io.Reader
	limit int
}

func (m *maxReadReader) Read(p []byte) (int, error) {
	if len(p) > m.limit {
		m.t.Errorf("read of %d bytes exceeds the %d-byte partition bound (input slurped?)", len(p), m.limit)
	}
	return m.r.Read(p)
}

// shortReadReader yields at most k bytes per Read, in a rotating
// pattern, exercising partial reads the way sockets do.
type shortReadReader struct {
	r io.Reader
	k int
	i int
}

func (s *shortReadReader) Read(p []byte) (int, error) {
	s.i++
	n := s.i%s.k + 1
	if n < len(p) {
		p = p[:n]
	}
	return s.r.Read(p)
}

func assertTablesEqual(t *testing.T, label string, got, want *Table) {
	t.Helper()
	g, w := tableRows(got), tableRows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: rows = %d, want %d", label, len(g), len(w))
	}
	if got.NumColumns() != want.NumColumns() {
		t.Fatalf("%s: columns = %d, want %d", label, got.NumColumns(), want.NumColumns())
	}
	for r := range w {
		if g[r] != w[r] {
			t.Fatalf("%s: row %d = %q, want %q", label, r, g[r], w[r])
		}
	}
}

func TestStreamReaderParityAcrossModes(t *testing.T) {
	var quoted bytes.Buffer
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&quoted, "%d,\"quoted, with\nnewline %d\",%d.25\n", i, i, i)
	}
	var utf16 strings.Builder
	for i := 0; i < 40; i++ {
		utf16.WriteString("héllo,wörld 🚀,42\nπ,🚕taxi,7\n")
	}

	cases := []struct {
		name  string
		data  []byte
		opts  Options
		modes []TaggingMode
	}{
		{name: "quoted", data: quoted.Bytes(), modes: []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited}},
		// Odd partition sizes split UTF-16 code units and surrogate
		// pairs across partitions; the raw-byte carry-over must heal
		// them.
		{name: "utf16", data: encodeUTF16LE(utf16.String(), false), opts: Options{Encoding: UTF16LE}, modes: []TaggingMode{RecordTagged, VectorDelimited}},
		{name: "utf16-bom", data: encodeUTF16LE(utf16.String(), true), opts: Options{DetectEncoding: true}, modes: []TaggingMode{RecordTagged}},
	}

	// 7 splits everything (records, quotes, surrogate pairs); 64 and
	// 1021 split records; the last size exceeds the input (single
	// partition).
	partSizes := []int{7, 64, 1021, 1 << 20}

	for _, tc := range cases {
		whole, err := Parse(tc.data, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range tc.modes {
			for _, ps := range partSizes {
				t.Run(fmt.Sprintf("%s/%s/part=%d", tc.name, mode, ps), func(t *testing.T) {
					opts := tc.opts
					opts.Mode = mode
					src := &maxReadReader{t: t, r: bytes.NewReader(tc.data), limit: ps}
					res, err := StreamReader(src, StreamOptions{
						Options:       opts,
						PartitionSize: ps,
					})
					if err != nil {
						t.Fatal(err)
					}
					combined, err := res.Combined()
					if err != nil {
						t.Fatal(err)
					}
					assertTablesEqual(t, "streamed", combined, whole.Table)
					// A detected byte-order mark (up to 3 bytes) is
					// stripped before the pipeline and not counted.
					if res.Stats.InputBytes < int64(len(tc.data))-3 || res.Stats.InputBytes > int64(len(tc.data)) {
						t.Errorf("InputBytes = %d, want ~%d", res.Stats.InputBytes, len(tc.data))
					}
				})
			}
		}
	}
}

// TestStreamReaderTinyFirstPartition drives partitions far smaller than
// the header record plus skipped rows: the first-partition handling
// must keep carrying input until the header and a complete record fit,
// instead of consuming a mangled partial header or freezing an empty
// schema.
func TestStreamReaderTinyFirstPartition(t *testing.T) {
	var sb bytes.Buffer
	sb.WriteString("# generated\n")
	sb.WriteString("alpha,beta,gamma\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "%d,\"v %d\",%d.5\n", i, i, i)
	}
	input := sb.Bytes()
	opts := Options{HasHeader: true, SkipRows: 1}

	whole, err := Parse(input, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []int{3, 5, 11} {
		res, err := StreamReader(bytes.NewReader(input), StreamOptions{
			Options:       opts,
			PartitionSize: ps,
		})
		if err != nil {
			t.Fatalf("part=%d: %v", ps, err)
		}
		if strings.Join(res.Header, ",") != "alpha,beta,gamma" {
			t.Fatalf("part=%d: header = %v", ps, res.Header)
		}
		combined, err := res.Combined()
		if err != nil {
			t.Fatal(err)
		}
		assertTablesEqual(t, fmt.Sprintf("part=%d", ps), combined, whole.Table)
	}
}

// TestStreamReaderShortReads feeds the pipeline through a reader that
// returns a few bytes per call: partial reads must not change the
// partition boundaries or the output.
func TestStreamReaderShortReads(t *testing.T) {
	var sb bytes.Buffer
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d,text %d,%d.75\n", i, i, i)
	}
	input := sb.Bytes()
	whole, err := Parse(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := StreamReader(&shortReadReader{r: bytes.NewReader(input), k: 13}, StreamOptions{
		PartitionSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Partitions < 4 {
		t.Fatalf("partitions = %d, want several", res.Stats.Partitions)
	}
	combined, err := res.Combined()
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "short-reads", combined, whole.Table)
}

// TestStreamReaderCommentHeavyInput streams a file whose comment lines
// vastly outnumber data records (comment newlines leave no record
// footprint in the DFA): the output must match Parse.
func TestStreamReaderCommentHeavyInput(t *testing.T) {
	f := NewCSV(CSV{Delimiter: ',', Comment: '#'})
	var sb bytes.Buffer
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "# comment line %d\n", i)
		if i%10 == 0 {
			fmt.Fprintf(&sb, "%d,%d\n", i, i*2)
		}
	}
	input := sb.Bytes()
	whole, err := Parse(input, Options{Format: f})
	if err != nil {
		t.Fatal(err)
	}
	res, err := StreamReader(bytes.NewReader(input), StreamOptions{
		Options:       Options{Format: f},
		PartitionSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := res.Combined()
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "comment-heavy", combined, whole.Table)
}

// TestStreamReaderRowlessPrefixBoundedCarry drives a first partition
// whose complete records are all dropped (SkipRecords): completed
// rowless records must be consumed, not carried — the carry-over stays
// bounded instead of accumulating the whole prefix (the
// larger-than-memory contract).
func TestStreamReaderRowlessPrefixBoundedCarry(t *testing.T) {
	skip := make([]int64, 1000)
	for i := range skip {
		skip[i] = int64(i)
	}
	input := bytes.Repeat([]byte("x\n"), 2000)
	const partSize = 64
	res, err := StreamReader(bytes.NewReader(input), StreamOptions{
		Options:       Options{SkipRecords: skip},
		PartitionSize: partSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxCarryOver > 4*partSize {
		t.Fatalf("max carry-over = %d for a rowless prefix; completed records are being re-carried",
			res.Stats.MaxCarryOver)
	}
}

// TestStreamReaderReportsInvalidInput checks the non-erroring
// validation signal survives the streaming route — including through
// ParseReader's above-threshold path.
func TestStreamReaderReportsInvalidInput(t *testing.T) {
	var sb bytes.Buffer
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d,ok\n", i)
	}
	sb.WriteString("bad\"quote\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d,ok\n", i)
	}
	input := sb.Bytes()

	res, err := StreamReader(bytes.NewReader(input), StreamOptions{
		PartitionSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.InvalidInput {
		t.Error("StreamReader did not flag the invalid partition")
	}

	defer func(old int) { ReaderStreamThreshold = old }(ReaderStreamThreshold)
	ReaderStreamThreshold = 512
	pres, err := ParseReader(bytes.NewReader(input), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Stats.InvalidInput {
		t.Error("ParseReader's streamed route dropped Stats.InvalidInput")
	}
}

// TestStreamReaderEmptyAndHeaderOnly covers the degenerate inputs a
// service sees: empty sources and sources containing only a header.
func TestStreamReaderEmptyAndHeaderOnly(t *testing.T) {
	res, err := StreamReader(strings.NewReader(""), StreamOptions{
		PartitionSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 0 {
		t.Errorf("empty input rows = %d", res.NumRows())
	}

	res, err = StreamReader(strings.NewReader("a,b\n"), StreamOptions{
		Options:       Options{HasHeader: true},
		PartitionSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Header, ",") != "a,b" {
		t.Errorf("header = %v", res.Header)
	}
	if res.NumRows() != 0 {
		t.Errorf("header-only rows = %d", res.NumRows())
	}
}

// completeRecordPartitions replays the streaming carry chain over input
// and counts the partitions that hold at least one complete record
// (the final partition always counts: it is parsed to its last byte).
func completeRecordPartitions(plan *core.Plan, input []byte, partSize int) int {
	count, carry, off := 0, 0, 0
	for {
		fresh := stream.NextFresh(partSize, carry, len(input)-off)
		buf := input[off-carry : off+fresh]
		off += fresh
		if off == len(input) {
			return count + 1
		}
		carry = plan.ScanRemainder(buf)
		if carry < len(buf) {
			count++
		}
	}
}

// TestStreamGiantRecordParsedOnce streams a record 32 partitions long,
// at the head of the input and mid-stream, through the ring at depths 1
// and 2. A partition inside the record is carried whole without
// a parse once the previous one held no complete record either, so
// the parses stay within the partitions holding a complete record plus
// one — instead of one parse per partition over an ever-growing carry.
func TestStreamGiantRecordParsedOnce(t *testing.T) {
	const part = 4 << 10
	giant := `7,"` + strings.Repeat("lorem, ipsum\n", 32*part/13) + `",8` + "\n"
	small := strings.Repeat("1,\"a,b\",2\n3,c,4\n", part/8)
	for _, tc := range []struct{ name, input string }{
		{"head", giant + small},
		{"middle", small + giant + small},
	} {
		input := []byte(tc.input)
		want, err := Parse(input, Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(Options{Schema: want.Table.Schema()})
		if err != nil {
			t.Fatal(err)
		}
		bound := completeRecordPartitions(eng.plan, input, part) + 1
		for _, inFlight := range []int{1, 2} {
			label := fmt.Sprintf("%s/inflight=%d", tc.name, inFlight)
			var parses atomic.Int64
			faultinject.SetRingParse(func(int) { parses.Add(1) })
			res, err := eng.Stream(input, StreamConfig{PartitionSize: part, InFlight: inFlight})
			faultinject.SetRingParse(nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := res.Combined()
			if err != nil {
				t.Fatal(err)
			}
			assertTablesIdentical(t, label, got, want.Table)
			if n := parses.Load(); n > int64(bound) {
				t.Errorf("%s: %d partition parses over %d partitions, want at most %d",
					label, n, res.Stats.Partitions, bound)
			}
			if res.Stats.MaxCarryOver < len(giant)-part {
				t.Errorf("%s: max carry-over %d, want about the %d-byte record", label, res.Stats.MaxCarryOver, len(giant))
			}
		}
	}
}

// TestParseReaderStreamedChunks: ParseReader's streamed route sums the
// partitions' chunk counts — every input byte lies in at least one
// parsed 31-byte chunk — and leaves the unmeasured device time unset.
func TestParseReaderStreamedChunks(t *testing.T) {
	input := workload.Taxi().Generate(DefaultPartitionSize*5/2, 3)
	defer func(old int) { ReaderStreamThreshold = old }(ReaderStreamThreshold)
	ReaderStreamThreshold = 1 << 10
	res, err := ParseReader(bytes.NewReader(input), Options{})
	if err != nil {
		t.Fatal(err)
	}
	min := (res.Stats.InputBytes + core.DefaultChunkSize - 1) / core.DefaultChunkSize
	if int64(res.Stats.Chunks) < min {
		t.Errorf("Chunks = %d for %d input bytes, want at least %d", res.Stats.Chunks, res.Stats.InputBytes, min)
	}
	if res.Stats.Phases != nil || res.Stats.DeviceTime != 0 {
		t.Errorf("streamed route reports phases %v, device time %v; want none", res.Stats.Phases, res.Stats.DeviceTime)
	}
}

// TestParseReaderInfersOverWholeInput: an input between a few
// partitions and ReaderStreamThreshold parses in one shot, so a column
// that is integral for its first megabyte and fractional after it is
// inferred as float, exactly as Parse infers it, instead of being
// frozen as an integer by the first partition.
func TestParseReaderInfersOverWholeInput(t *testing.T) {
	var sb strings.Builder
	for i := 0; sb.Len() < 3<<20; i++ {
		if sb.Len() < 3<<19 {
			fmt.Fprintf(&sb, "%d,row-%d\n", i, i)
		} else {
			fmt.Fprintf(&sb, "%d.5,row-%d\n", i, i)
		}
	}
	input := []byte(sb.String())
	want, err := Parse(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if typ := want.Table.Schema().Fields[0].Type; typ != Float64 {
		t.Fatalf("Parse inferred column 0 as %v, want Float64", typ)
	}
	got, err := ParseReader(bytes.NewReader(input), Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesIdentical(t, "ParseReader", got.Table, want.Table)
}

// TestParseReaderReadsHeadOnce: ParseReader sizes its head buffer from
// the reader when the reader reports its size, so a 1 KiB reader never
// costs a threshold-sized buffer, and a regular file just above the
// threshold — read from its start or from an offset — takes the
// streamed route and parses byte-identically to Parse. The streamed
// route's source lends chunks that lie within the head without copying
// them and never writes into the head.
func TestParseReaderReadsHeadOnce(t *testing.T) {
	small := workload.Taxi().Generate(1<<10, 4)
	readers := map[string]func() io.Reader{
		"bytes":   func() io.Reader { return bytes.NewReader(small) },
		"strings": func() io.Reader { return strings.NewReader(string(small)) },
		"unsized": func() io.Reader { return io.MultiReader(bytes.NewReader(small)) },
	}
	for name, r := range readers {
		head, err := readHead(r(), ReaderStreamThreshold+1)
		if err != nil || !bytes.Equal(head, small) {
			t.Fatalf("%s: readHead = %d bytes, %v; want the %d input bytes", name, len(head), err, len(small))
		}
		if name != "unsized" && cap(head) != len(small)+1 {
			t.Errorf("%s: head capacity %d for a %d-byte reader", name, cap(head), len(small))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ParseReader(r(), Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(ReaderStreamThreshold) {
			t.Errorf("%s: ParseReader of %d bytes allocated %d bytes", name, len(small), alloc)
		}
	}

	defer func(old int) { ReaderStreamThreshold = old }(ReaderStreamThreshold)
	ReaderStreamThreshold = 64 << 10
	input := workload.Taxi().Generate(ReaderStreamThreshold+2<<10, 4)
	path := filepath.Join(t.TempDir(), "taxi.csv")
	if err := os.WriteFile(path, input, 0o644); err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(input, '\n') + 1
	for _, off := range []int{0, first} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		head, err := readHead(f, ReaderStreamThreshold+1)
		if err != nil || len(head) != cap(head) || cap(head) != ReaderStreamThreshold+1 {
			t.Fatalf("offset %d: readHead = len %d cap %d, %v; want one %d-byte buffer",
				off, len(head), cap(head), err, ReaderStreamThreshold+1)
		}
		// 1000-byte chunks: one straddles the head's end.
		orig := append([]byte(nil), head...)
		src := stream.HeadSource(head, f)
		var fill, drained []byte
		for last := false; !last; {
			at := len(drained)
			data, l, err := src.Fill(fill, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if at+len(data) <= len(head) && len(data) > 0 && &data[0] != &head[at] {
				t.Fatalf("offset %d: Fill of head bytes [%d,%d) copied them", off, at, at+len(data))
			}
			drained = append(drained, data...)
			fill, last = data, l
		}
		if !bytes.Equal(head, orig) {
			t.Fatalf("offset %d: Fill wrote into the head", off)
		}
		if !bytes.Equal(drained, input[off:]) {
			t.Fatalf("offset %d: head source yielded %d bytes, want the %d input bytes", off, len(drained), len(input)-off)
		}
		if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
			t.Fatal(err)
		}
		got, err := ParseReader(f, Options{})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Parse(input[off:], Options{})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("file from offset %d", off)
		if got.Stats.Phases != nil {
			t.Errorf("%s: %d bytes took the one-shot route", label, len(input)-off)
		}
		assertTablesIdentical(t, label, got.Table, want.Table)
	}
}
