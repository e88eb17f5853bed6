package stats

import (
	"fmt"
	"strings"
)

// Table is a simple text table for experiment output: fixed headers,
// string cells, rendered with aligned columns.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable builds a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; the cell count must match the headers.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("stats: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
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
	return b.String()
}

// ScalingPoint is one row of a strong-scaling study.
type ScalingPoint struct {
	P       int     // number of ranks / cores
	Seconds float64 // measured (critical-path) time
}

// ScalingTable accumulates strong-scaling results relative to its
// first entry (usually P = 1), reproducing the analysis of Fig. 4.
type ScalingTable struct {
	Points []ScalingPoint
}

// Add appends a measurement.
func (s *ScalingTable) Add(p int, seconds float64) {
	s.Points = append(s.Points, ScalingPoint{P: p, Seconds: seconds})
}

// Speedup returns T(P₀)/T(P) for point i, with P₀ the first entry.
func (s *ScalingTable) Speedup(i int) float64 {
	if len(s.Points) == 0 || s.Points[i].Seconds == 0 {
		return 0
	}
	return s.Points[0].Seconds / s.Points[i].Seconds
}

// Efficiency returns Speedup(i)·P₀/P(i), 1.0 meaning perfect scaling.
func (s *ScalingTable) Efficiency(i int) float64 {
	if len(s.Points) == 0 || s.Points[i].P == 0 {
		return 0
	}
	return s.Speedup(i) * float64(s.Points[0].P) / float64(s.Points[i].P)
}

// Render formats the scaling study as a Table.
func (s *ScalingTable) Render(title string) *Table {
	t := NewTable(title, "cores", "time[s]", "speedup", "efficiency")
	for i, p := range s.Points {
		t.Add(
			fmt.Sprintf("%d", p.P),
			fmt.Sprintf("%.4f", p.Seconds),
			fmt.Sprintf("%.2f", s.Speedup(i)),
			fmt.Sprintf("%.3f", s.Efficiency(i)),
		)
	}
	return t
}
