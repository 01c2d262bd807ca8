package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

const sampleCSV = `Name:string,Age:int,OptIn:bool,Income:float
alice,34,true,52000.5
bob,16,false,0
`

func TestReadCSV(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	r := tb.Record(0)
	if r.Get("Name").AsString() != "alice" || r.Get("Age").AsInt() != 34 {
		t.Errorf("record 0 = %v %v", r.Get("Name").AsString(), r.Get("Age").AsInt())
	}
	if r.Get("Income").AsFloat() != 52000.5 {
		t.Errorf("Income = %v", r.Get("Income").AsFloat())
	}
	if k, _ := tb.Schema().KindOf("OptIn"); k != KindBool {
		t.Errorf("OptIn kind = %v", k)
	}
}

func TestReadCSVDefaultsToString(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader("City\nparis\n"))
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := tb.Schema().KindOf("City"); k != KindString {
		t.Errorf("bare header kind = %v", k)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"Age:int\nnotanumber\n",
		"Flag:bool\nmaybe\n",
		"X:float\nabc\n",
		"A:int,B:int\n1\n", // ragged row
		"A:complex\n1\n",   // unknown kind
		":int\n1\n",        // empty name
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig, err := ReadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	again, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != orig.Len() {
		t.Fatalf("round trip lost records: %d vs %d", again.Len(), orig.Len())
	}
	om, am := orig.Multiset(), again.Multiset()
	for k, c := range om {
		if am[k] != c {
			t.Fatalf("multiset mismatch at %q", k)
		}
	}
	// Schema kinds preserved.
	for _, name := range orig.Schema().Names() {
		ok, _ := orig.Schema().KindOf(name)
		ak, found := again.Schema().KindOf(name)
		if !found || ok != ak {
			t.Errorf("kind of %q not preserved", name)
		}
	}
}

func TestWriteCSVEmptyTable(t *testing.T) {
	tb := NewTable(NewSchema(Field{Name: "A", Kind: KindInt}))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "A:int\n" {
		t.Errorf("empty table CSV = %q", got)
	}
}

// referenceWriteCSV is the row-at-a-time encoder WriteCSV must match byte
// for byte: every record through the row API, every cell through
// Value.AsString, and encoding/csv for quoting.
func referenceWriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	s := t.Schema()
	header := make([]string, s.Len())
	for i, name := range s.Names() {
		kind, _ := s.KindOf(name)
		header[i] = name + ":" + kind.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, s.Len())
	for _, r := range t.Records() {
		for i := range row {
			row[i] = r.At(i).AsString()
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// chunkRecorder collects what WriteCSV writes and the size of each write.
type chunkRecorder struct {
	bytes.Buffer
	writes []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.Buffer.Write(p)
}

// csvDiffTable has a column of every kind plus a mixed-kind column (an
// int column holding strings, floats and bools, stored in its exception
// map), with cells that exercise every branch of the CSV quoting rule.
func csvDiffTable() *Table {
	tb := NewTable(NewSchema(
		Field{Name: "Name", Kind: KindString},
		Field{Name: "N", Kind: KindInt},
		Field{Name: "X", Kind: KindFloat},
		Field{Name: "B", Kind: KindBool},
		Field{Name: "Mixed, \"odd\"", Kind: KindInt},
	))
	names := []string{"", `""`, `\.`, `\.x`, "a,b", `"q"`, "x\ny", "x\ry", "x\r\ny",
		" lead", "\tlead", "\u00a0nbsp", "\u0085nel", "trail ", "plain", "ünï", `a"b"c`}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		1e21, 0.1, 0, -2.5e-300, 123456789}
	mixed := []Value{Int(-7), Str("s,t"), Float(0.5), Bool(true), Str(" x"), Int(1 << 62)}
	for i := 0; i < 60; i++ {
		tb.AppendValues(
			Str(names[i%len(names)]),
			Int(int64(i*i-900)),
			Float(floats[i%len(floats)]),
			Bool(i%3 == 0),
			mixed[i%len(mixed)],
		)
	}
	return tb
}

func TestWriteCSVMatchesReferenceWriter(t *testing.T) {
	base := csvDiffTable()
	odd := NewBitset(base.Len())
	for i := 1; i < base.Len(); i += 2 {
		odd.Set(i)
	}
	cases := []struct {
		name string
		tb   *Table
	}{
		{"base", base},
		{"where", base.Where(odd)},
		{"view of view", base.Filter(Cmp("B", OpEq, Bool(false))).Filter(Cmp("N", OpGe, Int(0)))},
		{"empty view", base.Where(NewBitset(base.Len()))},
	}
	for _, c := range cases {
		var got, want bytes.Buffer
		if err := WriteCSV(&got, c.tb); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := referenceWriteCSV(&want, c.tb); err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: WriteCSV differs from encoding/csv:\ngot  %q\nwant %q", c.name, got.String(), want.String())
		}
	}
}

func TestWriteCSVFlushesInChunks(t *testing.T) {
	tb := NewTable(NewSchema(Field{Name: "S", Kind: KindString}, Field{Name: "X", Kind: KindFloat}))
	for i := 0; i < 20000; i++ {
		tb.AppendValues(Str(fmt.Sprintf("row %d, \"quoted\"", i%97)), Float(float64(i)/7))
	}
	var got chunkRecorder
	var want bytes.Buffer
	if err := WriteCSV(&got, tb); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteCSV(&want, tb); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("chunked WriteCSV output differs from encoding/csv")
	}
	if len(got.writes) < want.Len()/csvChunk {
		t.Errorf("%d bytes written in %d writes, want at least %d", want.Len(), len(got.writes), want.Len()/csvChunk)
	}
	for i, n := range got.writes {
		if n > 2*csvChunk {
			t.Errorf("write %d is %d bytes, want at most %d", i, n, 2*csvChunk)
		}
	}
}

func TestWriteCSVReportsWriterError(t *testing.T) {
	boom := errors.New("boom")
	if err := WriteCSV(failingWriter{boom}, csvDiffTable()); !errors.Is(err, boom) {
		t.Fatalf("WriteCSV error = %v, want %v", err, boom)
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }
