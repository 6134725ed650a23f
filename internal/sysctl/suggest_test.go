package sysctl

import (
	"strings"
	"testing"
)

func suggestTable() *Table {
	t := NewTable()
	var i int64
	var f float64
	var b bool
	t.Int64("chrono/scan_period_ms", "", &i, nil, nil)
	t.Int64("chrono/split_threshold", "", &i, nil, nil)
	t.Int64("chrono/rate_limit_bps", "", &i, nil, nil)
	t.Float64("chrono/hot_fraction", "", &f, nil, nil)
	t.Bool("kernel/numa_tiering", "", &b, nil)
	t.Int64("memtis/cooling_period", "", &i, nil, nil)
	return t
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"abcd", "abdc", 1}, // transposition
		{"ab", "ba", 1},     // transposition
		{"abc", "abcd", 1},  // insert
		{"abcd", "abc", 1},  // delete
		{"abc", "axc", 1},   // substitute
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSuggest(t *testing.T) {
	tab := suggestTable()
	cases := []struct {
		name  string
		path  string
		first string // expected nearest suggestion; "" = expect none at all
	}{
		{"typo one char", "chrono/scan_period_mss", "chrono/scan_period_ms"},
		{"transposed", "chrono/scan_periodm_s", "chrono/scan_period_ms"},
		{"missing prefix component", "scan_period_ms", "chrono/scan_period_ms"},
		{"bare component", "numa_tiering", "kernel/numa_tiering"},
		{"prefix only", "chrono/rate", "chrono/rate_limit_bps"},
		{"wrong namespace", "kernel/scan_period_ms", "chrono/scan_period_ms"},
		{"total nonsense", "zzzzzzzzzzzzzzzzzzzzzz", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := tab.Suggest(c.path, 3)
			if c.first == "" {
				if len(got) != 0 {
					t.Fatalf("Suggest(%q) = %v, want none", c.path, got)
				}
				return
			}
			if len(got) == 0 || got[0] != c.first {
				t.Fatalf("Suggest(%q) = %v, want first %q", c.path, got, c.first)
			}
		})
	}
}

func TestSuggestMaxAndOrder(t *testing.T) {
	tab := suggestTable()
	got := tab.Suggest("chrono/scan_period_ms", 2)
	if len(got) > 2 {
		t.Fatalf("Suggest max=2 returned %d entries: %v", len(got), got)
	}
	if len(got) == 0 || got[0] != "chrono/scan_period_ms" {
		t.Fatalf("exact path should be its own nearest suggestion, got %v", got)
	}
	if tab.Suggest("anything", 0) != nil {
		t.Fatal("Suggest max=0 should return nil")
	}
}

func TestSetUnknownKeyError(t *testing.T) {
	tab := suggestTable()
	err := tab.Set("chrono/scan_period", "5")
	if err == nil {
		t.Fatal("Set on unknown key must fail")
	}
	if !strings.Contains(err.Error(), "did you mean") ||
		!strings.Contains(err.Error(), "chrono/scan_period_ms") {
		t.Fatalf("error should carry did-you-mean hint, got: %v", err)
	}

	// A garbage key fails without nonsense suggestions.
	err = tab.Set("qqqqqqqqqqqqqqqqqqqqqqqq", "1")
	if err == nil {
		t.Fatal("Set on garbage key must fail")
	}
	if strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("garbage key should not get suggestions, got: %v", err)
	}

	if _, err := tab.Get("chrono/scan_period"); err == nil ||
		!strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("Get on near-miss key should carry hint, got: %v", err)
	}
}
