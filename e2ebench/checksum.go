package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	parparaw "repro"
	"repro/internal/columnar"
)

// digest hashes a table's schema, values, nulls and rejected flags
// column by column in row order. Rows may arrive split across any
// number of tables, so the per-partition tables of a streaming route
// and their concatenation hash alike.
type digest struct {
	schema []string
	cols   []hash.Hash
	rej    hash.Hash
	rows   int
	err    error
}

// column is the read interface shared by the public and the internal
// column types, reduced to what hashing needs.
type column struct {
	name, typ string
	n         int
	isNull    func(int) bool
	value     func(dst []byte, i int) []byte
}

func (d *digest) addSchema(cols []column) {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.name + ":" + c.typ
	}
	if d.cols == nil {
		d.schema = names
		d.rej = sha256.New()
		for range cols {
			d.cols = append(d.cols, sha256.New())
		}
		return
	}
	if fmt.Sprint(names) != fmt.Sprint(d.schema) {
		d.err = fmt.Errorf("schema %v differs from the first table's %v", names, d.schema)
	}
}

func (d *digest) add(cols []column, rows int, rejected func(int) bool) {
	d.addSchema(cols)
	if d.err != nil {
		return
	}
	var buf []byte
	for c, col := range cols {
		h := d.cols[c]
		for i := 0; i < col.n; i++ {
			buf = buf[:0]
			if col.isNull(i) {
				buf = append(buf, 0)
			} else {
				buf = append(buf, 1)
				buf = col.value(buf, i)
			}
			h.Write(buf)
		}
	}
	for i := 0; i < rows; i++ {
		if rejected(i) {
			binary.Write(d.rej, binary.LittleEndian, int64(d.rows+i))
		}
	}
	d.rows += rows
}

// addPublic hashes a table returned by the public API.
func (d *digest) addPublic(t *parparaw.Table) {
	cols := make([]column, t.NumColumns())
	for i := range cols {
		c := t.Column(i)
		cols[i] = column{name: c.Name(), typ: c.Type().String(), n: c.Len(), isNull: c.IsNull,
			value: valueFunc(c.Type().String(), c.Bytes, c.Int64, c.Float64, c.Bool)}
	}
	d.add(cols, t.NumRows(), t.Rejected)
}

// addColumnar hashes a table produced by the internal pipeline.
func (d *digest) addColumnar(t *columnar.Table) {
	cols := make([]column, t.NumColumns())
	for i := range cols {
		c := t.Column(i)
		f := c.Field()
		cols[i] = column{name: f.Name, typ: f.Type.String(), n: c.Len(), isNull: c.IsNull,
			value: valueFunc(f.Type.String(), c.StringValue, c.Int64Value, c.Float64Value, c.BoolValue)}
	}
	d.add(cols, t.NumRows(), t.Rejected)
}

func valueFunc(typ string, str func(int) []byte, i64 func(int) int64, f64 func(int) float64,
	b func(int) bool) func([]byte, int) []byte {
	switch typ {
	case "string":
		return func(dst []byte, i int) []byte {
			s := str(i)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s)))
			return append(dst, s...)
		}
	case "float64":
		return func(dst []byte, i int) []byte {
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f64(i)))
		}
	case "bool":
		return func(dst []byte, i int) []byte {
			if b(i) {
				return append(dst, 1)
			}
			return append(dst, 0)
		}
	default: // int64, date32, timestamp: all stored as int64
		return func(dst []byte, i int) []byte {
			return binary.LittleEndian.AppendUint64(dst, uint64(i64(i)))
		}
	}
}

// sum returns the hex digest, or an error when the tables disagreed on
// their schema.
func (d *digest) sum() (string, error) {
	if d.err != nil {
		return "", d.err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v|%d|", d.schema, d.rows)
	for _, c := range d.cols {
		h.Write(c.Sum(nil))
	}
	if d.rej != nil {
		h.Write(d.rej.Sum(nil))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashingWriter counts and hashes what is written through it.
type hashingWriter struct {
	h hash.Hash
	n int64
}

func newHashingWriter() *hashingWriter { return &hashingWriter{h: sha256.New()} }

func (w *hashingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *hashingWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }
