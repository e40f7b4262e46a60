package report

import (
	"strings"
	"testing"

	"p2panon/internal/experiment"
	"p2panon/internal/stats"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Headers: []string{"a", "long-header", "c"},
	}
	tab.AddRow("1", "2", "3")
	tab.AddRow("400", "5", "6")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "long-header") {
		t.Fatal("missing header")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Alignment: both data rows start flush-left with padded first col.
	if !strings.HasPrefix(lines[3], "1  ") {
		t.Fatalf("row not padded: %q", lines[3])
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Headers: []string{"x", "y"}}
	tab.AddRow("1", "2")
	var b strings.Builder
	if err := tab.CSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "x,y\n1,2\n" {
		t.Fatalf("csv = %q", b.String())
	}
}

func TestFormatters(t *testing.T) {
	if F(3.14159) != "3.14" {
		t.Fatalf("F = %q", F(3.14159))
	}
	if F4(3.14159) != "3.1416" {
		t.Fatalf("F4 = %q", F4(3.14159))
	}
}

func TestSeriesTable(t *testing.T) {
	s := experiment.Series{
		Name: "payoff",
		Points: []experiment.FigPoint{
			{X: 0.1, Mean: 100, CI: 5, N: 10},
			{X: 0.5, Mean: 50, CI: 3, N: 10},
		},
	}
	tab := SeriesTable("Fig 3", "f", s)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "100.00" {
		t.Fatalf("cell = %q", tab.Rows[0][1])
	}
}

func TestMultiSeriesTable(t *testing.T) {
	mk := func(name string, means ...float64) experiment.Series {
		s := experiment.Series{Name: name}
		for i, m := range means {
			s.Points = append(s.Points, experiment.FigPoint{X: float64(i), Mean: m})
		}
		return s
	}
	tab := MultiSeriesTable("Fig 5", "f", []experiment.Series{
		mk("random", 10, 12),
		mk("utility-I", 4, 5),
	})
	if len(tab.Headers) != 3 {
		t.Fatalf("headers %v", tab.Headers)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "10.00" || tab.Rows[0][2] != "4.00" {
		t.Fatalf("row %v", tab.Rows[0])
	}
	empty := MultiSeriesTable("x", "f", nil)
	if len(empty.Rows) != 0 {
		t.Fatal("empty series produced rows")
	}
}

func TestTable2Render(t *testing.T) {
	tab2 := &experiment.Table2{
		Taus:      []float64{0.5, 1},
		Fractions: []float64{0.1, 0.9},
		Cells: []experiment.Table2Cell{
			{Tau: 0.5, F: 0.1, Efficiency: 409},
			{Tau: 1, F: 0.1, Efficiency: 390},
			{Tau: 0.5, F: 0.9, Efficiency: 85},
			{Tau: 1, F: 0.9, Efficiency: 91},
		},
		Means: []float64{247, 240.5},
	}
	tab := Table2Render(tab2)
	if len(tab.Rows) != 3 { // f=0.1, f=0.9, Mean
		t.Fatalf("rows %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "f=0.1" || tab.Rows[2][0] != "Mean" {
		t.Fatalf("row labels %v / %v", tab.Rows[0], tab.Rows[2])
	}
	if tab.Rows[0][1] != "409.00" {
		t.Fatalf("cell %q", tab.Rows[0][1])
	}
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "tau=0.5") {
		t.Fatal("missing tau header")
	}
}

func TestCDFTables(t *testing.T) {
	cdfs := []experiment.CDFSeries{
		{Name: "random", Points: []stats.Point{{X: 0, F: 0}, {X: 10, F: 1}}, Mean: 5, Max: 10, StdDev: 2},
		{Name: "utility-I", Points: []stats.Point{{X: 0, F: 0}}, Mean: 8, Max: 30, StdDev: 9},
	}
	tab := CDFTable("Fig 6", cdfs)
	if len(tab.Headers) != 4 {
		t.Fatalf("headers %v", tab.Headers)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	if tab.Rows[1][2] != "-" {
		t.Fatalf("short series not padded: %v", tab.Rows[1])
	}
	sum := CDFSummaryTable("summary", cdfs)
	if len(sum.Rows) != 2 || sum.Rows[1][0] != "utility-I" {
		t.Fatalf("summary %v", sum.Rows)
	}
	if len(sum.Headers) != 6 {
		t.Fatalf("summary headers %v", sum.Headers)
	}
}

func TestHistogramRender(t *testing.T) {
	h := stats.NewHistogram(0, 10, 2)
	h.Add(1)
	h.Add(2)
	h.Add(8)
	out := Histogram("payoffs", h, 10)
	if !strings.Contains(out, "payoffs") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "##########") {
		t.Fatal("missing full bar")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines %d", len(lines))
	}
}
