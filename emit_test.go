package datacell

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/vector"
)

// rowTableOf is the row-at-a-time reference for tableOf: one Row per
// tuple, each cell fetched through Vector.Get.
func rowTableOf(rel *bat.Relation) Table {
	var t Table
	var idx []int
	for i, n := range rel.Names() {
		if n == basket.TimestampCol || strings.HasPrefix(n, "__") {
			continue
		}
		t.Cols = append(t.Cols, n)
		idx = append(idx, i)
	}
	for r := 0; r < rel.Len(); r++ {
		row := make(Row, len(idx))
		for j, i := range idx {
			switch v := rel.Col(i).Get(r); v.Kind {
			case vector.Int:
				row[j] = v.I
			case vector.Float:
				row[j] = v.F
			case vector.Bool:
				row[j] = v.B
			case vector.Str:
				row[j] = v.S
			case vector.Timestamp:
				row[j] = time.UnixMicro(v.I)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func TestTableOfMatchesRowAtATime(t *testing.T) {
	names := []string{"i", "__cover", "f", "b", "s", "ts", basket.TimestampCol}
	mk := func(n int) *bat.Relation {
		ints, cover, floats := make([]int64, n), make([]int64, n), make([]float64, n)
		bools, strs, ts, sys := make([]bool, n), make([]string, n), make([]int64, n), make([]int64, n)
		for r := 0; r < n; r++ {
			ints[r] = int64(r*1000 - 7)
			cover[r] = int64(r)
			floats[r] = float64(r) / 4
			bools[r] = r%3 == 0
			strs[r] = strings.Repeat("x", r%5)
			ts[r] = 1_700_000_000_000_000 + int64(r)
			sys[r] = int64(r) * 2
		}
		return bat.NewRelation(names, []*vector.Vector{
			vector.FromInts(ints), vector.FromInts(cover), vector.FromFloats(floats),
			vector.FromBools(bools), vector.FromStrs(strs), vector.FromTimestamps(ts),
			vector.FromTimestamps(sys),
		})
	}
	for _, n := range []int{0, 1, 7, 300} {
		rel := mk(n)
		got, want := tableOf(rel), rowTableOf(rel)
		if !reflect.DeepEqual(got.Cols, []string{"i", "f", "b", "s", "ts"}) {
			t.Errorf("n=%d: cols %v", n, got.Cols)
		}
		if len(got.Rows) != n {
			t.Fatalf("n=%d: %d rows", n, len(got.Rows))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: column-at-a-time table differs from row-at-a-time:\n got %v\nwant %v", n, got, want)
		}
		for r, row := range got.Rows {
			if cap(row) != len(got.Cols) {
				t.Fatalf("n=%d: row %d has capacity %d, want %d", n, r, cap(row), len(got.Cols))
			}
		}
		if n > 0 {
			if _, ok := got.Rows[0][4].(time.Time); !ok {
				t.Errorf("timestamp cell is %T, want time.Time", got.Rows[0][4])
			}
		}
	}
}

var tableSink Table

// TestTableOfAllocs pins the two-slab shape: a batch costs the boxed cells
// plus a handful of allocations, with no Row header per row and no append
// growth. Values are at least 256 so every cell really boxes (smaller
// integers come from the runtime's static table).
func TestTableOfAllocs(t *testing.T) {
	const rows, width = 1000, 4
	names := []string{"a", "b", "c", "d", basket.TimestampCol}
	cols := make([]*vector.Vector, len(names))
	for c := range cols {
		vals := make([]int64, rows)
		for r := range vals {
			vals[r] = int64(256 + r*len(names) + c)
		}
		cols[c] = vector.FromInts(vals)
	}
	rel := bat.NewRelation(names, cols)
	const budget = rows*width + 8
	allocs := testing.AllocsPerRun(20, func() { tableSink = tableOf(rel) })
	if allocs > budget {
		t.Errorf("tableOf allocates %.0f per %d-row batch, budget %d", allocs, rows, budget)
	}
}
