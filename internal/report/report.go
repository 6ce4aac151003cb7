// Package report renders experiment results as fixed-width ASCII tables,
// CSV, and simple terminal line plots — the output layer of the cmd tools
// and of EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple rectangular table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(widths))
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
		return err
	}
	sep := make([]string, len(widths))
	for i, wd := range widths {
		sep[i] = strings.Repeat("-", wd)
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as RFC-4180-ish CSV (quotes only when needed).
func (t *Table) WriteCSV(w io.Writer) error {
	emit := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			parts[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := emit(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// Emit writes each table — as CSV when csv is set, else aligned — and a
// blank line after it: the layout a CLI report and the daemon job that
// reproduces it share byte for byte.
func Emit(w io.Writer, csv bool, tables ...*Table) error {
	for _, t := range tables {
		write := t.Write
		if csv {
			write = t.WriteCSV
		}
		if err := write(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Write(&b)
	return b.String()
}

func pad(s string, w int) string {
	r := []rune(s)
	if len(r) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(r))
}

// SI formats a value with an engineering prefix and unit, e.g.
// SI(9.76e3, "Ω") = "9.76kΩ".
func SI(v float64, unit string) string {
	if v == 0 {
		return "0" + unit
	}
	if math.IsInf(v, 1) {
		return "∞" + unit
	}
	a := math.Abs(v)
	prefixes := []struct {
		scale float64
		sym   string
	}{
		{1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "µ"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
	}
	for _, p := range prefixes {
		if a >= p.scale {
			return trim(v/p.scale) + p.sym + unit
		}
	}
	return trim(v/1e-15) + "f" + unit
}

func trim(v float64) string {
	s := fmt.Sprintf("%.3g", v)
	return s
}
