package interval

import (
	"testing"

	"datacell/internal/vector"
)

func iv(lo, hi int64) Interval {
	return Interval{Lo: Closed(vector.NewInt(lo)), Hi: Open(vector.NewInt(hi))}
}

func TestNewSetNormalizes(t *testing.T) {
	s := NewSet(iv(10, 20), iv(0, 5), iv(15, 30), iv(5, 7))
	if got := s.String(); got != "[0,7) u [10,30)" {
		t.Fatalf("normalized set = %s", got)
	}
	// Empty intervals are dropped.
	s = NewSet(Interval{Lo: Closed(vector.NewInt(5)), Hi: Open(vector.NewInt(5))})
	if len(s.ivs) != 0 {
		t.Fatalf("[5,5) should be empty, got %s", s)
	}
	// Touching with a closed side merges; double-open touching does not.
	s = NewSet(iv(0, 5), Interval{Lo: Closed(vector.NewInt(5)), Hi: Closed(vector.NewInt(9))})
	if got := s.String(); got != "[0,9]" {
		t.Fatalf("touching merge = %s", got)
	}
	s = NewSet(
		Interval{Lo: Closed(vector.NewInt(0)), Hi: Open(vector.NewInt(5))},
		Interval{Lo: Open(vector.NewInt(5)), Hi: Closed(vector.NewInt(9))})
	if got := len(s.ivs); got != 2 {
		t.Fatalf("double-open touch merged: %s", s)
	}
}

func TestContains(t *testing.T) {
	s := NewSet(iv(0, 10), Point(vector.NewInt(42)),
		Interval{Lo: Open(vector.NewInt(100)), Hi: Unbounded()})
	cases := []struct {
		v    int64
		want bool
	}{
		{-1, false}, {0, true}, {9, true}, {10, false},
		{41, false}, {42, true}, {43, false},
		{100, false}, {101, true}, {1 << 40, true},
	}
	for _, c := range cases {
		if got := s.Contains(vector.NewInt(c.v)); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v in %s", c.v, got, c.want, s)
		}
	}
	if (Set{}).Contains(vector.NewInt(0)) {
		t.Error("empty set contains 0")
	}
	// Exactness across numeric kinds: a float probe against int bounds.
	if !s.Contains(vector.NewFloat(9.5)) || s.Contains(vector.NewFloat(10.0)) {
		t.Error("float probes against int bounds mis-resolved")
	}
}

func TestUnionIntersect(t *testing.T) {
	a := NewSet(iv(0, 10), iv(20, 30))
	b := NewSet(iv(5, 25), iv(40, 50))
	if got := a.Union(b).String(); got != "[0,30) u [40,50)" {
		t.Fatalf("union = %s", got)
	}
	if got := a.Intersect(b).String(); got != "[5,10) u [20,25)" {
		t.Fatalf("intersect = %s", got)
	}
	if got := a.Intersect(NewSet(iv(100, 200))); len(got.ivs) != 0 {
		t.Fatalf("disjoint intersect = %s", got)
	}
	// Unbounded pieces.
	lt := NewSet(Interval{Lo: Unbounded(), Hi: Open(vector.NewInt(10))})
	ge := NewSet(Interval{Lo: Closed(vector.NewInt(0)), Hi: Unbounded()})
	if got := lt.Intersect(ge).String(); got != "[0,10)" {
		t.Fatalf("(-inf,10) ∩ [0,+inf) = %s", got)
	}
	if !lt.Union(ge).All() {
		t.Fatalf("(-inf,10) ∪ [0,+inf) should be everything, got %s", lt.Union(ge))
	}
}

func TestBoundedMeasureCuts(t *testing.T) {
	s := NewSet(iv(0, 10), iv(20, 30))
	if !s.Bounded() {
		t.Fatal("finite set reported unbounded")
	}
	if m, ok := s.Measure(); !ok || m != 20 {
		t.Fatalf("measure = %g, %v; want 20, true", m, ok)
	}
	cuts, ok := s.Cuts(4)
	if !ok || len(cuts) != 3 {
		t.Fatalf("cuts = %v, %v", cuts, ok)
	}
	// Equal measure slices: 0-5, 5-10, 20-25, 25-30.
	want := []float64{5, 10, 25}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v, want %v", cuts, want)
		}
	}
	// Point sets have zero measure: no cuts, hash placement instead.
	if _, ok := NewSet(Point(vector.NewInt(3)), Point(vector.NewInt(9))).Cuts(2); ok {
		t.Fatal("point set produced cuts")
	}
	// Unbounded sets cannot be sliced.
	if _, ok := NewSet(Interval{Lo: Unbounded(), Hi: Closed(vector.NewInt(5))}).Cuts(2); ok {
		t.Fatal("unbounded set produced cuts")
	}
	// String sets have no numeric measure.
	strSet := NewSet(Interval{Lo: Closed(vector.NewStr("a")), Hi: Closed(vector.NewStr("m"))})
	if _, ok := strSet.Measure(); ok {
		t.Fatal("string set reported a numeric measure")
	}
}

func TestAllAndStrings(t *testing.T) {
	all := NewSet(Interval{Lo: Unbounded(), Hi: Unbounded()})
	if !all.All() || !all.Contains(vector.NewInt(123)) {
		t.Fatalf("unbounded-both set should be All: %s", all)
	}
	s := NewSet(Interval{Lo: Closed(vector.NewStr("b")), Hi: Open(vector.NewStr("d"))})
	if !s.Contains(vector.NewStr("b")) || !s.Contains(vector.NewStr("cz")) ||
		s.Contains(vector.NewStr("d")) || s.Contains(vector.NewStr("a")) {
		t.Fatalf("string range membership wrong: %s", s)
	}
}
