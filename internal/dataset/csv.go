package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ReadCSV loads a table from CSV. The first row must be a header of
// "name:kind" declarations (kind ∈ int, float, string, bool; a bare name
// defaults to string), e.g.:
//
//	Name:string,Age:int,OptIn:bool
//	alice,34,true
//
// Values that fail to parse under the declared kind are an error, keeping
// silent data corruption out of privacy-sensitive pipelines.
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading header: %w", err)
	}
	fields := make([]Field, len(header))
	seen := make(map[string]bool, len(header))
	for i, h := range header {
		name, kindName, found := strings.Cut(strings.TrimSpace(h), ":")
		if name == "" {
			return nil, fmt.Errorf("dataset: empty attribute name in column %d", i+1)
		}
		if seen[name] {
			return nil, fmt.Errorf("dataset: duplicate attribute %q in column %d", name, i+1)
		}
		seen[name] = true
		kind := KindString
		if found {
			switch kindName {
			case "int":
				kind = KindInt
			case "float":
				kind = KindFloat
			case "string":
				kind = KindString
			case "bool":
				kind = KindBool
			default:
				return nil, fmt.Errorf("dataset: unknown kind %q for attribute %q", kindName, name)
			}
		}
		fields[i] = Field{Name: name, Kind: kind}
	}
	schema := NewSchema(fields...)
	table := NewTable(schema)

	line := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		values := make([]Value, len(fields))
		for i, cell := range row {
			v, err := parseValue(cell, fields[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d, attribute %q: %w", line, fields[i].Name, err)
			}
			values[i] = v
		}
		table.Append(NewRecord(schema, values...))
	}
	return table, nil
}

func parseValue(cell string, kind Kind) (Value, error) {
	cell = strings.TrimSpace(cell)
	switch kind {
	case KindInt:
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as int: %w", cell, err)
		}
		return Int(n), nil
	case KindFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as float: %w", cell, err)
		}
		return Float(f), nil
	case KindBool:
		b, err := strconv.ParseBool(cell)
		if err != nil {
			return Value{}, fmt.Errorf("parsing %q as bool: %w", cell, err)
		}
		return Bool(b), nil
	default:
		return Str(cell), nil
	}
}

// csvChunk is how many encoded bytes WriteCSV buffers before handing
// them to the writer, so a large export never holds a second full copy.
const csvChunk = 64 << 10

// WriteCSV writes the table in the format ReadCSV accepts, including the
// typed header. Round-tripping a table through WriteCSV/ReadCSV preserves
// schema and values, with one encoding/csv caveat: a single-column record
// holding the empty string serialises to a blank line, which CSV readers
// skip — such records do not survive the round trip.
//
// The output is byte-identical to encoding/csv's Writer (comma-separated,
// "\n" line endings, the same quoting rule). Cells are appended straight
// from the typed column vectors, and each string dictionary entry's
// quoting is decided once per call, so encoding allocates per call, not
// per row.
func WriteCSV(w io.Writer, t *Table) error {
	s := t.Schema()
	buf := make([]byte, 0, csvChunk+4<<10)
	for i, name := range s.Names() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, name+":"+s.kinds[i].String())
	}
	buf = append(buf, '\n')

	cols := t.Base().cols
	// quote[c][code] memoizes string column c's dictionary entries:
	// 0 = not yet seen, 1 = written verbatim, 2 = needs quotes.
	quote := make([][]uint8, len(cols))
	for c, col := range cols {
		if col.kind == KindString {
			quote[c] = make([]uint8, len(col.dict.vals))
		}
	}
	for i, n := 0, t.Len(); i < n; i++ {
		row := t.physRow(i)
		for c, col := range cols {
			if c > 0 {
				buf = append(buf, ',')
			}
			if v, ok := col.exc[row]; ok {
				buf = appendCSVField(buf, v.AsString())
				continue
			}
			switch col.kind {
			case KindInt:
				buf = strconv.AppendInt(buf, col.ints[row], 10)
			case KindFloat:
				buf = strconv.AppendFloat(buf, col.floats[row], 'g', -1, 64)
			case KindBool:
				buf = strconv.AppendBool(buf, col.bools[row])
			default:
				code := col.codes[row]
				str := col.dict.vals[code]
				if quote[c][code] == 0 {
					quote[c][code] = 1
					if csvNeedsQuotes(str) {
						quote[c][code] = 2
					}
				}
				if quote[c][code] == 2 {
					buf = appendQuoted(buf, str)
				} else {
					buf = append(buf, str...)
				}
			}
		}
		buf = append(buf, '\n')
		if len(buf) >= csvChunk {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("dataset: writing CSV: %w", err)
			}
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("dataset: writing CSV: %w", err)
	}
	return nil
}

// csvNeedsQuotes is encoding/csv's quoting rule for a comma-separated
// field: quote `\.`, anything holding a comma, quote, CR or LF, and
// anything starting with a Unicode space. The empty field is not quoted.
func csvNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` || strings.ContainsAny(field, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// appendCSVField appends field, quoted when csvNeedsQuotes says so.
func appendCSVField(buf []byte, field string) []byte {
	if csvNeedsQuotes(field) {
		return appendQuoted(buf, field)
	}
	return append(buf, field...)
}

// appendQuoted appends field in double quotes with inner quotes doubled;
// CR and LF are kept verbatim, as encoding/csv does without UseCRLF.
func appendQuoted(buf []byte, field string) []byte {
	buf = append(buf, '"')
	for {
		i := strings.IndexByte(field, '"')
		if i < 0 {
			break
		}
		buf = append(buf, field[:i+1]...)
		buf = append(buf, '"')
		field = field[i+1:]
	}
	buf = append(buf, field...)
	return append(buf, '"')
}
