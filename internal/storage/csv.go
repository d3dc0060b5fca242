package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"qpp/internal/catalog"
	"qpp/internal/types"
)

// ReadCSV parses rows for a table from CSV (with a header line, as written
// by cmd/tpchgen), converting each field according to the table schema and
// appending the values, row after row, to one array.
func ReadCSV(meta *catalog.Table, r io.Reader) (types.Rows, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(meta.Columns)
	header, err := cr.Read()
	if err != nil {
		return types.Rows{}, fmt.Errorf("storage: csv header: %w", err)
	}
	for i, c := range meta.Columns {
		if header[i] != c.Name {
			return types.Rows{}, fmt.Errorf("storage: csv column %d is %q, schema expects %q", i, header[i], c.Name)
		}
	}
	var vals []types.Value
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return types.Rows{}, fmt.Errorf("storage: csv line %d: %w", line, err)
		}
		line++
		for i, field := range rec {
			v, err := parseValue(meta.Columns[i].Type, field)
			if err != nil {
				return types.Rows{}, fmt.Errorf("storage: csv line %d, column %q: %w", line, meta.Columns[i].Name, err)
			}
			vals = append(vals, v)
		}
	}
	return types.NewRows(len(meta.Columns), vals), nil
}

// parseValue converts one CSV field to a typed value. "NULL" denotes SQL
// NULL in any column.
func parseValue(kind types.Kind, field string) (types.Value, error) {
	if field == "NULL" {
		return types.Null, nil
	}
	switch kind {
	case types.KindInt:
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return types.Null, err
		}
		return types.Int(n), nil
	case types.KindFloat:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return types.Null, err
		}
		return types.Float(f), nil
	case types.KindDate:
		d, err := types.ParseDate(field)
		if err != nil {
			return types.Null, err
		}
		return types.Date(d), nil
	case types.KindBool:
		b, err := strconv.ParseBool(field)
		if err != nil {
			return types.Null, err
		}
		return types.Bool(b), nil
	default:
		return types.Str(field), nil
	}
}

// WriteCSV writes a table (with header) in the format ReadCSV accepts,
// spelling every cell so that ReadCSV gives back an Identical value: floats
// keep every digit (Key's shortest exact form; String rounds to two
// decimals). A string cell spelled NULL would be read back as SQL NULL, so
// it is an error.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Meta.Columns))
	for i, c := range t.Meta.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for r := range t.Rows.Len() {
		for i, v := range t.Rows.Row(r) {
			switch v.Kind() {
			case types.KindFloat:
				rec[i] = v.Key()
			case types.KindString:
				if rec[i] = v.S(); rec[i] == "NULL" {
					return fmt.Errorf("storage: csv %s row %d, column %q: the string %q would be read back as SQL NULL",
						t.Meta.Name, r+1, t.Meta.Columns[i].Name, rec[i])
				}
			default:
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
