// Package report renders experiment results as aligned ASCII tables,
// bar charts and series plots for terminal output. cmd/figures uses it
// to print every reproduced paper figure/table, and EXPERIMENTS.md is
// generated from the same renderers.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple aligned-column text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Bars renders a labelled horizontal bar chart. Values are scaled so
// the longest bar is width characters; negative values render to the
// left of the axis mark.
func Bars(title string, labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 40
	}
	var maxAbs float64
	for _, v := range values {
		if a := abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, v := range values {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		n := 0
		if maxAbs > 0 {
			n = int(abs(v) / maxAbs * float64(width))
		}
		bar := strings.Repeat("#", n)
		if v < 0 {
			fmt.Fprintf(&b, "%-*s  -%s (%.2f)\n", labelW, label, bar, v)
		} else {
			fmt.Fprintf(&b, "%-*s  %s (%.2f)\n", labelW, label, bar, v)
		}
	}
	return b.String()
}

// GroupedBars renders one bar group per label: each label has one value
// per series (e.g. one bar per thread, as in the paper's Figs. 3/4).
func GroupedBars(title string, labels []string, seriesNames []string, values [][]float64, width int) string {
	if width <= 0 {
		width = 30
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	var maxAbs float64
	for _, group := range values {
		for _, v := range group {
			if a := abs(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	nameW := 0
	for _, n := range seriesNames {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	for i, label := range labels {
		fmt.Fprintf(&b, "%s\n", label)
		if i >= len(values) {
			continue
		}
		for j, v := range values[i] {
			name := ""
			if j < len(seriesNames) {
				name = seriesNames[j]
			}
			n := 0
			if maxAbs > 0 {
				n = int(abs(v) / maxAbs * float64(width))
			}
			fmt.Fprintf(&b, "  %-*s  %s (%.3f)\n", nameW, name, strings.Repeat("#", n), v)
		}
	}
	return b.String()
}

// Matrix renders a rows × columns grid of values with row and column
// labels — e.g. policies × fault levels with one mean improvement per
// cell. Missing cells (short rows) render blank.
func Matrix(title string, rowLabels, colLabels []string, values [][]float64) string {
	cells := make([][]string, len(values))
	for i, row := range values {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = fmt.Sprintf("%.2f", v)
		}
	}
	labelW := 0
	for _, l := range rowLabels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	colW := make([]int, len(colLabels))
	for j, l := range colLabels {
		colW[j] = len(l)
	}
	for _, row := range cells {
		for j, c := range row {
			if j < len(colW) && len(c) > colW[j] {
				colW[j] = len(c)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	fmt.Fprintf(&b, "%-*s", labelW, "")
	for j, l := range colLabels {
		fmt.Fprintf(&b, "  %*s", colW[j], l)
	}
	b.WriteString("\n")
	for i, l := range rowLabels {
		fmt.Fprintf(&b, "%-*s", labelW, l)
		if i < len(cells) {
			for j := range colLabels {
				c := ""
				if j < len(cells[i]) {
					c = cells[i][j]
				}
				fmt.Fprintf(&b, "  %*s", colW[j], c)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Sparkline renders a series as a one-line unicode sparkline, useful
// for the per-interval figures (Figs. 6/7).
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(ramp)-1))
		}
		b.WriteRune(ramp[idx])
	}
	return b.String()
}

// Series renders a labelled multi-line block of sparklines with
// min/max annotations.
func Series(title string, labels []string, rows [][]float64) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for i, row := range rows {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		lo, hi := 0.0, 0.0
		if len(row) > 0 {
			lo, hi = row[0], row[0]
			for _, v := range row {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		fmt.Fprintf(&b, "%-*s  %s  [%.3g .. %.3g]\n", labelW, label, Sparkline(row), lo, hi)
	}
	return b.String()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
