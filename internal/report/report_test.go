package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig. X", "bench", "value")
	tb.AddRow("swim", 1.234567)
	tb.AddRow("a-very-long-name", 42)
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	out := tb.String()
	if !strings.Contains(out, "Fig. X") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "1.23") {
		t.Error("float not formatted to 2 decimals")
	}
	if !strings.Contains(out, "a-very-long-name") {
		t.Error("long cell missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Errorf("line count = %d, want 5:\n%s", len(lines), out)
	}
	// Columns aligned: header and separator have the same width.
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("header/separator misaligned:\n%s", out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	out := tb.String()
	if strings.HasPrefix(out, "\n") {
		t.Error("leading blank line with empty title")
	}
	if !strings.Contains(out, "x") {
		t.Error("row missing")
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "2", "3") // extra column beyond headers
	out := tb.String()
	if !strings.Contains(out, "3") {
		t.Errorf("extra cell dropped:\n%s", out)
	}
}

func TestBars(t *testing.T) {
	out := Bars("improvements", []string{"swim", "cg"}, []float64{5, 10}, 20)
	if !strings.Contains(out, "improvements") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// cg's bar (10) must be about twice swim's bar (5).
	swimBars := strings.Count(lines[1], "#")
	cgBars := strings.Count(lines[2], "#")
	if cgBars != 20 || swimBars != 10 {
		t.Errorf("bar lengths swim=%d cg=%d, want 10 and 20", swimBars, cgBars)
	}
}

func TestBarsNegative(t *testing.T) {
	out := Bars("", []string{"x"}, []float64{-3}, 10)
	if !strings.Contains(out, "-#") {
		t.Errorf("negative bar not marked:\n%s", out)
	}
	if !strings.Contains(out, "(-3.00)") {
		t.Errorf("negative value missing:\n%s", out)
	}
}

func TestBarsZeroValues(t *testing.T) {
	out := Bars("", []string{"x", "y"}, []float64{0, 0}, 10)
	if strings.Count(out, "#") != 0 {
		t.Errorf("zero values drew bars:\n%s", out)
	}
}

func TestBarsDefaultWidth(t *testing.T) {
	out := Bars("", []string{"x"}, []float64{1}, 0)
	if strings.Count(out, "#") != 40 {
		t.Errorf("default width not 40:\n%s", out)
	}
}

func TestGroupedBars(t *testing.T) {
	out := GroupedBars("fig3", []string{"swim", "cg"}, []string{"t0", "t1"},
		[][]float64{{1, 0.5}, {0.8, 0.25}}, 20)
	if !strings.Contains(out, "swim") || !strings.Contains(out, "cg") {
		t.Error("labels missing")
	}
	if !strings.Contains(out, "t0") || !strings.Contains(out, "t1") {
		t.Error("series names missing")
	}
	if !strings.Contains(out, "(0.500)") {
		t.Errorf("value annotation missing:\n%s", out)
	}
}

func TestGroupedBarsRagged(t *testing.T) {
	// More labels than value groups must not panic.
	out := GroupedBars("", []string{"a", "b"}, []string{"s"}, [][]float64{{1}}, 10)
	if !strings.Contains(out, "b") {
		t.Errorf("missing label:\n%s", out)
	}
}

func TestMatrix(t *testing.T) {
	out := Matrix("robustness", []string{"static-equal", "model-based"},
		[]string{"clean", "moderate", "catastrophic"},
		[][]float64{{4.1, 4.05, 4.2}, {8.3, 6.78, 4.0}})
	if !strings.Contains(out, "robustness") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + column header + 2 rows
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("rows misaligned:\n%s", out)
	}
	for _, want := range []string{"moderate", "model-based", "6.78", "4.05"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Column labels must line up over their values: "6.78" sits in the
	// moderate column, right-aligned under the label.
	head := strings.Index(lines[1], "moderate") + len("moderate")
	val := strings.Index(lines[3], "6.78") + len("6.78")
	if head != val {
		t.Errorf("column ends misaligned (%d vs %d):\n%s", head, val, out)
	}
}

func TestMatrixRagged(t *testing.T) {
	// Short rows and missing rows must render blanks, not panic.
	out := Matrix("", []string{"a", "b", "c"}, []string{"x", "y"},
		[][]float64{{1}, {2, 3}})
	for _, want := range []string{"a", "b", "c", "1.00", "3.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	out := Sparkline([]float64{0, 1, 2, 3})
	runes := []rune(out)
	if len(runes) != 4 {
		t.Fatalf("sparkline length = %d", len(runes))
	}
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline extremes wrong: %q", out)
	}
	flat := []rune(Sparkline([]float64{5, 5, 5}))
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat series should render minimum glyphs: %q", string(flat))
		}
	}
}

func TestSeries(t *testing.T) {
	out := Series("fig6", []string{"thread0", "thread1"},
		[][]float64{{0.1, 0.2, 0.3}, {0.3, 0.2, 0.1}})
	if !strings.Contains(out, "fig6") || !strings.Contains(out, "thread0") {
		t.Error("labels missing")
	}
	if !strings.Contains(out, "[0.1 .. 0.3]") {
		t.Errorf("range annotation missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("lines = %d", len(lines))
	}
}

func TestSeriesEmptyRow(t *testing.T) {
	out := Series("", []string{"empty"}, [][]float64{nil})
	if !strings.Contains(out, "empty") {
		t.Errorf("label missing:\n%s", out)
	}
}
