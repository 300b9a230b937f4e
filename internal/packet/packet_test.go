package packet

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"napawine/internal/sim"
	"napawine/internal/units"
)

func mkAddr(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

func randomRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			TS:   sim.Time(rng.Int63n(1 << 40)),
			Src:  mkAddr(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(253))),
			Dst:  mkAddr(10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(253))),
			Size: units.ByteSize(rng.Int63n(1500)),
			TTL:  uint8(100 + rng.Intn(29)),
			Kind: Kind(rng.Intn(3)),
		}
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	probe := mkAddr(10, 0, 0, 1)
	recs := randomRecords(500, 1)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, probe, "pplive-run-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 500 {
		t.Errorf("Count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Probe() != probe {
		t.Errorf("Probe = %v", r.Probe())
	}
	if r.Label() != "pplive-run-1" {
		t.Errorf("Label = %q", r.Label())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

// Property: any record survives a binary round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(ts int64, s, d [4]byte, size uint16, ttl uint8, kind uint8) bool {
		if ts < 0 {
			ts = -ts
		}
		rec := Record{
			TS:   sim.Time(ts),
			Src:  netip.AddrFrom4(s),
			Dst:  netip.AddrFrom4(d),
			Size: units.ByteSize(size),
			TTL:  ttl,
			Kind: Kind(kind % 3),
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, mkAddr(10, 0, 0, 1), "p")
		if err != nil {
			return false
		}
		if w.Write(rec) != nil || w.Close() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Next()
		return err == nil && got == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, mkAddr(10, 0, 0, 1), "x")
	for _, r := range randomRecords(3, 2) {
		_ = w.Write(r)
	}
	_ = w.Close()
	full := buf.Bytes()

	// Chop mid-record: reader must surface ErrBadTrace, not silent EOF.
	chopped := full[:len(full)-7]
	r, err := NewReader(bytes.NewReader(chopped))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ReadAll()
	if err == nil {
		t.Fatal("truncated trace should error")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("error = %v, want truncation report", err)
	}
}

func TestBadHeader(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("NWT1"),             // missing probe
		[]byte("NWT1\x0a\x00\x00"), // short probe
		append([]byte("NWT1\x0a\x00\x00\x01"), 5), // label length but no label
	}
	for i, raw := range cases {
		if _, err := NewReader(bytes.NewReader(raw)); err == nil {
			t.Errorf("case %d: bad header accepted", i)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, mkAddr(10, 0, 0, 1), "")
	_ = w.Close()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty trace Next = %v, want io.EOF", err)
	}
}

func TestWriterRejectsLongLabel(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, mkAddr(1, 2, 3, 4), strings.Repeat("x", 300)); err == nil {
		t.Error("long label should be rejected")
	}
}

func TestWriterRejectsHugeSize(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, mkAddr(1, 2, 3, 4), "x")
	if err := w.Write(Record{Size: 1 << 40}); err == nil {
		t.Error("oversized record should be rejected")
	}
	// Writer stays poisoned afterwards.
	if err := w.Write(Record{Size: 10}); err == nil {
		t.Error("writer should stay failed after an error")
	}
}

func TestHops(t *testing.T) {
	r := Record{TTL: 128}
	if r.Hops() != 0 {
		t.Errorf("TTL 128 → hops %d, want 0", r.Hops())
	}
	r.TTL = 109
	if r.Hops() != 19 {
		t.Errorf("TTL 109 → hops %d, want 19 (the paper's median threshold)", r.Hops())
	}
}

func TestKindString(t *testing.T) {
	if Signaling.String() != "signaling" || Request.String() != "request" || Video.String() != "video" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include its number")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := randomRecords(50, 3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "ts_ns,src,dst,size,ttl,kind" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines)-1 != len(recs) {
		t.Fatalf("csv lines = %d, want %d", len(lines)-1, len(recs))
	}
	for i, line := range lines[1:] {
		got, err := ParseCSVLine(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != recs[i] {
			t.Fatalf("line %d: %+v vs %+v", i, got, recs[i])
		}
	}
}

func TestParseCSVLineErrors(t *testing.T) {
	bad := []string{
		"",
		"1,2,3",
		"x,10.0.0.1,10.0.0.2,100,128,video",
		"1,not-an-ip,10.0.0.2,100,128,video",
		"1,10.0.0.1,nope,100,128,video",
		"1,10.0.0.1,10.0.0.2,xx,128,video",
		"1,10.0.0.1,10.0.0.2,100,999,video",
		"1,10.0.0.1,10.0.0.2,100,128,mystery",
	}
	for _, line := range bad {
		if _, err := ParseCSVLine(line); err == nil {
			t.Errorf("ParseCSVLine(%q) should fail", line)
		}
	}
}

// writeTrace encodes recs behind a header for probe 10.0.0.1.
func writeTrace(tb testing.TB, label string, recs []Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, mkAddr(10, 0, 0, 1), label)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// A read error or an early end anywhere in a trace must surface as an
// error that wraps both ErrBadTrace and its cause, and must never match
// io.EOF, which callers take for a clean end.
func TestReadErrorsWrapCause(t *testing.T) {
	errDisk := errors.New("disk on fire")
	trace := writeTrace(t, "lbl", randomRecords(1, 5))
	header := len(trace) - recordBytes
	check := func(t *testing.T, err, want error) {
		t.Helper()
		if !errors.Is(err, ErrBadTrace) || !errors.Is(err, want) || errors.Is(err, io.EOF) {
			t.Errorf("error %v: want ErrBadTrace wrapping %v, not io.EOF", err, want)
		}
	}
	for n := 0; n < header; n++ {
		_, err := NewReader(io.MultiReader(bytes.NewReader(trace[:n]), iotest.ErrReader(errDisk)))
		check(t, err, errDisk)
		_, err = NewReader(bytes.NewReader(trace[:n]))
		check(t, err, io.ErrUnexpectedEOF)
	}
	for n := header; n < len(trace); n++ {
		r, err := NewReader(io.MultiReader(bytes.NewReader(trace[:n]), iotest.ErrReader(errDisk)))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Next()
		check(t, err, errDisk)
		if n == header {
			continue // a bare header is a valid empty trace
		}
		if r, err = NewReader(bytes.NewReader(trace[:n])); err != nil {
			t.Fatal(err)
		}
		_, err = r.Next()
		check(t, err, io.ErrUnexpectedEOF)
	}
}

// The codec's hot paths must not allocate per record.
func TestCodecZeroAllocs(t *testing.T) {
	rec := randomRecords(1, 6)[0]
	w, err := NewWriter(io.Discard, mkAddr(10, 0, 0, 1), "allocs")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = w.Write(rec) }); n != 0 {
		t.Errorf("Writer.Write: %v allocs per record, want 0", n)
	}

	r, err := NewReader(bytes.NewReader(writeTrace(t, "allocs", randomRecords(2000, 7))))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { _, _ = r.Next() }); n != 0 {
		t.Errorf("Reader.Next: %v allocs per record, want 0", n)
	}
}

// FuzzReader feeds arbitrary bytes to the reader. It must not panic, every
// error must be io.EOF or wrap ErrBadTrace, and every decoded record must
// re-encode to the bytes it was read from.
func FuzzReader(f *testing.F) {
	trace := writeTrace(f, "fuzz", randomRecords(3, 8))
	f.Add(trace)
	f.Add(trace[:len(trace)-7]) // chopped mid-record
	f.Add(trace[:6])            // chopped mid-header
	f.Add(append([]byte("NWT0"), trace[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) || errors.Is(err, io.EOF) {
				t.Fatalf("NewReader error %v does not wrap ErrBadTrace alone", err)
			}
			return
		}
		var re bytes.Buffer
		w, err := NewWriter(&re, r.Probe(), r.Label())
		if err != nil {
			t.Fatalf("header does not re-encode: %v", err)
		}
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrBadTrace) || errors.Is(err, io.EOF) {
					t.Fatalf("Next error %v does not wrap ErrBadTrace alone", err)
				}
				break
			}
			if err := w.Write(rec); err != nil {
				t.Fatalf("decoded record %+v does not re-encode: %v", rec, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := re.Bytes(); !bytes.HasPrefix(data, got) {
			t.Fatalf("re-encoded trace differs from its input:\n got  %x\n want %x", got, data[:min(len(got), len(data))])
		}
	})
}

func BenchmarkWrite(b *testing.B) {
	w, _ := NewWriter(io.Discard, mkAddr(10, 0, 0, 1), "bench")
	rec := Record{TS: 12345, Src: mkAddr(10, 0, 0, 2), Dst: mkAddr(10, 0, 0, 1),
		Size: 1250, TTL: 110, Kind: Video}
	b.ReportAllocs()
	for b.Loop() {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReaderNext decodes one record per op, reopening the trace when
// it runs out.
func BenchmarkReaderNext(b *testing.B) {
	data := writeTrace(b, "bench", randomRecords(10000, 4))
	src := bytes.NewReader(data)
	r, err := NewReader(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		_, err := r.Next()
		if err == io.EOF {
			src.Reset(data)
			if r, err = NewReader(src); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
