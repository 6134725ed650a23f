// Package report renders the evaluation results as fixed-width text
// tables and ASCII series, one renderer per artifact kind in the paper:
// bar-group tables (Figures 6, 7, 8, 11, 12, 13), time-series summaries
// (Figures 9, 10b, 10c), distribution tables (Figures 1, 2), and plain
// key-value tables (Tables 1, 2).
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple fixed-width table.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells render with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Fprint renders the table to w.
func (t *Table) Fprint(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(w, "note: %s\n", t.Note)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Sparkline renders values as a unicode mini-chart for time series.
func Sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	const ramp = "▁▂▃▄▅▆▇█"
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vs {
		idx := 0
		if hi > lo {
			// Clamped: values spanning more than the float range make
			// the ratio NaN.
			idx = min(max(int((v-lo)/(hi-lo)*7), 0), 7)
		}
		b.WriteRune(rune([]rune(ramp)[idx]))
	}
	return b.String()
}

// Downsample reduces a series to at most n points by striding.
func Downsample(vs []float64, n int) []float64 {
	if len(vs) <= n || n <= 0 {
		return vs
	}
	out := make([]float64, 0, n)
	step := float64(len(vs)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, vs[int(float64(i)*step)])
	}
	return out
}
