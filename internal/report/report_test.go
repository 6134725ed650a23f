package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "Name", "Value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", 1200.0)
	tb.Note = "a note"
	out := tb.String()
	for _, want := range []string{"== Demo ==", "Name", "Value", "alpha", "1.500", "beta", "1200", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Header separator present.
	if !strings.Contains(out, "----") {
		t.Fatal("missing separator")
	}
}

func TestTableColumnAlignment(t *testing.T) {
	tb := NewTable("", "A", "LongHeader")
	tb.AddRow("xxxxxxxxxx", "y")
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("too few lines: %v", lines)
	}
	// The value column must start at the same offset in every line.
	idxHeader := strings.Index(lines[0], "LongHeader")
	idxRow := strings.Index(lines[2], "y")
	if idxHeader != idxRow {
		t.Fatalf("columns misaligned: header@%d row@%d\n%s", idxHeader, idxRow, tb.String())
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(0.0)
	tb.AddRow(0.123456)
	tb.AddRow(42.42)
	tb.AddRow(98765.4)
	rows := tb.Rows
	if rows[0][0] != "0" {
		t.Fatalf("zero formatted as %q", rows[0][0])
	}
	if rows[1][0] != "0.123" {
		t.Fatalf("small float %q", rows[1][0])
	}
	if rows[2][0] != "42.4" {
		t.Fatalf("medium float %q", rows[2][0])
	}
	if rows[3][0] != "98765" {
		t.Fatalf("large float %q", rows[3][0])
	}
}

func TestMixedCellTypes(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow(7, "text", 3.14)
	row := tb.Rows[0]
	if row[0] != "7" || row[1] != "text" || row[2] != "3.140" {
		t.Fatalf("row=%v", row)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] == runes[3] {
		t.Fatal("min and max render the same")
	}
	// A constant series renders without panicking.
	flat := Sparkline([]float64{5, 5, 5})
	if len([]rune(flat)) != 3 {
		t.Fatal("flat sparkline")
	}
	// So does one whose span overflows a float64 (a NaN ratio).
	if wide := Sparkline([]float64{-1e308, 1e308}); len([]rune(wide)) != 2 {
		t.Fatal("wide sparkline")
	}
}

func TestDownsample(t *testing.T) {
	in := make([]float64, 100)
	for i := range in {
		in[i] = float64(i)
	}
	out := Downsample(in, 10)
	if len(out) != 10 {
		t.Fatalf("downsampled to %d", len(out))
	}
	if out[0] != 0 {
		t.Fatal("first point lost")
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatal("downsampling reordered points")
		}
	}
	// No-ops.
	if got := Downsample(in, 200); len(got) != 100 {
		t.Fatal("upsample should be identity")
	}
	if got := Downsample(in, 0); len(got) != 100 {
		t.Fatal("n=0 should be identity")
	}
}
