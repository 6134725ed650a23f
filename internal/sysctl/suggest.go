package sysctl

// "Did you mean" support for the parameter registry: tools that accept
// parameter paths from the command line (chronoctl, chronod's reconfigure
// API) reject unknown keys up front and offer the nearest registered
// paths instead of failing mid-run or, worse, proceeding silently.

import (
	"fmt"
	"sort"
	"strings"
)

// Suggest returns up to max registered paths closest to path, nearest
// first. Distance is Damerau-Levenshtein over the full path string, with
// two shortcuts that match how users actually mistype slash-separated
// keys: an exact component match ("rate_limit_bps" for
// "chrono/rate_limit_bps") and a prefix match both count as very close.
// Paths further than half their own length are omitted, so a completely
// unrelated key yields no suggestions rather than nonsense.
func (t *Table) Suggest(path string, max int) []string {
	if max <= 0 {
		return nil
	}
	type scored struct {
		path string
		dist int
	}
	var cands []scored
	for _, p := range t.All() {
		d := editDistance(path, p.Path)
		// Component and prefix matches are near-misses regardless of the
		// raw edit distance ("chrono/..." vs "core/..." style slips).
		if strings.HasSuffix(p.Path, "/"+path) || strings.HasPrefix(p.Path, path) {
			if d > 2 {
				d = 2
			}
		}
		limit := len(p.Path) / 2
		if limit < 2 {
			limit = 2
		}
		if d <= limit {
			cands = append(cands, scored{p.Path, d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].path < cands[j].path
	})
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.path
	}
	return out
}

// UnknownKeyError builds the error for a write to an unregistered path,
// including a did-you-mean list when any registered path is close.
func (t *Table) UnknownKeyError(path string) error {
	if sug := t.Suggest(path, 3); len(sug) > 0 {
		return fmt.Errorf("sysctl: unknown parameter %q (did you mean %s?)",
			path, strings.Join(sug, ", "))
	}
	return fmt.Errorf("sysctl: unknown parameter %q", path)
}

// editDistance is the Damerau-Levenshtein distance (insert, delete,
// substitute, transpose adjacent) between a and b.
func editDistance(a, b string) int {
	la, lb := len(a), len(b)
	prev2 := make([]int, lb+1)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // delete
			if v := cur[j-1] + 1; v < m { // insert
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitute
				m = v
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if v := prev2[j-2] + 1; v < m { // transpose
					m = v
				}
			}
			cur[j] = m
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}
