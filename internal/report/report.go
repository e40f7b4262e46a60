// Package report renders experiment output in the shapes the paper
// presents: fixed-width ASCII tables (Table 2), figure series as aligned
// columns with error bars (Figs. 3-5), CDF curves (Figs. 6-7), and CSV for
// external plotting.
package report

import (
	"fmt"
	"io"
	"strings"

	"p2panon/internal/experiment"
	"p2panon/internal/stats"
)

// Table is a generic fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row; cells are used as-is.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table to w with column alignment.
func (t *Table) Render(w io.Writer) error {
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
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (no quoting — all
// emitted cells are numeric or simple identifiers).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// F formats a float with 2 decimals for table cells.
func F(v float64) string { return fmt.Sprintf("%.2f", v) }

// F4 formats a float with 4 decimals.
func F4(v float64) string { return fmt.Sprintf("%.4f", v) }

// SeriesTable renders a figure series (Fig. 3/4/5 style) as a table of
// x, mean, ±CI.
func SeriesTable(title, xName string, series experiment.Series) *Table {
	t := &Table{Title: title, Headers: []string{xName, "mean", "ci95", "n"}}
	for _, p := range series.Points {
		t.AddRow(F(p.X), F(p.Mean), F(p.CI), fmt.Sprintf("%d", p.N))
	}
	return t
}

// MultiSeriesTable renders several series against a shared x column
// (Fig. 5 style: one column per strategy).
func MultiSeriesTable(title, xName string, series []experiment.Series) *Table {
	headers := []string{xName}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	t := &Table{Title: title, Headers: headers}
	if len(series) == 0 {
		return t
	}
	for i, p := range series[0].Points {
		row := []string{F(p.X)}
		for _, s := range series {
			if i < len(s.Points) {
				row = append(row, F(s.Points[i].Mean))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Table2Render lays out experiment.Table2 exactly like the paper: rows
// f=…, columns τ=…, and a final Mean row.
func Table2Render(tab *experiment.Table2) *Table {
	headers := []string{""}
	for _, tau := range tab.Taus {
		headers = append(headers, fmt.Sprintf("tau=%g", tau))
	}
	t := &Table{Title: "Table 2: Routing efficiency for utility model I", Headers: headers}
	for _, f := range tab.Fractions {
		row := []string{fmt.Sprintf("f=%g", f)}
		for _, tau := range tab.Taus {
			if v, ok := tab.Cell(tau, f); ok {
				row = append(row, F(v))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	meanRow := []string{"Mean"}
	for _, m := range tab.Means {
		meanRow = append(meanRow, F(m))
	}
	t.AddRow(meanRow...)
	return t
}

// CDFTable renders CDF curves (Figs. 6-7 style): one x column per series
// plus its F(x).
func CDFTable(title string, cdfs []experiment.CDFSeries) *Table {
	headers := []string{}
	for _, c := range cdfs {
		headers = append(headers, c.Name+"-payoff", c.Name+"-F")
	}
	t := &Table{Title: title, Headers: headers}
	maxLen := 0
	for _, c := range cdfs {
		if len(c.Points) > maxLen {
			maxLen = len(c.Points)
		}
	}
	for i := 0; i < maxLen; i++ {
		var row []string
		for _, c := range cdfs {
			if i < len(c.Points) {
				row = append(row, F(c.Points[i].X), F4(c.Points[i].F))
			} else {
				row = append(row, "-", "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// CDFSummaryTable renders the mean/max/stddev comparison the paper draws
// from Figs. 6-7, plus the payoff-concentration metrics (Gini, Jain).
func CDFSummaryTable(title string, cdfs []experiment.CDFSeries) *Table {
	t := &Table{Title: title, Headers: []string{"strategy", "mean", "max", "stddev", "gini", "jain"}}
	for _, c := range cdfs {
		t.AddRow(c.Name, F(c.Mean), F(c.Max), F(c.StdDev), F4(c.Gini), F4(c.Jain))
	}
	return t
}

// Histogram renders a stats.Histogram as an ASCII bar chart. A nil or
// empty histogram renders as just the title, and a non-positive width
// falls back to a single-column chart instead of panicking in Repeat.
func Histogram(title string, h *stats.Histogram, width int) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	if h == nil {
		return b.String()
	}
	if width < 1 {
		width = 1
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%10.1f | %-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	return b.String()
}
