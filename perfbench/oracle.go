package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/types"
)

// rowKey renders one result row canonically: datums joined by '|'.
func rowKey(r types.Row) string {
	parts := make([]string, len(r))
	for i, d := range r {
		parts[i] = d.String()
	}
	return strings.Join(parts, "|")
}

// intsKey renders an expected row of integers the way rowKey renders the
// engine's BIGINT datums.
func intsKey(vals ...int64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, "|")
}

// Multiset counts canonical row keys.
type Multiset map[string]int

func MultisetOf(rows []types.Row) Multiset {
	m := Multiset{}
	for _, r := range rows {
		m[rowKey(r)]++
	}
	return m
}

// SameMultiset compares a result with the expected rows as multisets (SQL
// result identity without ORDER BY) and describes the first differences.
func SameMultiset(got []types.Row, want Multiset) error {
	have := MultisetOf(got)
	var diffs []string
	for k, n := range want {
		if have[k] != n {
			diffs = append(diffs, fmt.Sprintf("%q: want %d, got %d", k, n, have[k]))
		}
	}
	for k, n := range have {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%q: want 0, got %d", k, n))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	if len(diffs) > 3 {
		diffs = append(diffs[:3], fmt.Sprintf("... %d more", len(diffs)-3))
	}
	return fmt.Errorf("result differs from the expected multiset (%d rows vs %d): %s",
		len(got), want.size(), strings.Join(diffs, "; "))
}

// SameSequence compares a result with the expected rows in order (SQL
// result identity under a total ORDER BY).
func SameSequence(got []types.Row, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d rows, want %d", len(got), len(want))
	}
	for i, r := range got {
		if k := rowKey(r); k != want[i] {
			return fmt.Errorf("row %d is %q, want %q", i, k, want[i])
		}
	}
	return nil
}

func (m Multiset) size() int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}
