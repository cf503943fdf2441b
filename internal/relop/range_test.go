package relop

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"datacell/internal/vector"
)

func TestIntRange(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	cases := []struct {
		op     CmpOp
		val    vector.Value
		lo, hi int64
		ok     bool
	}{
		{EQ, vector.NewInt(5), 5, 5, true},
		{LT, vector.NewInt(5), minI, 4, true},
		{LE, vector.NewInt(5), minI, 5, true},
		{GT, vector.NewInt(5), 6, maxI, true},
		{GE, vector.NewInt(5), 5, maxI, true},
		{LT, vector.NewInt(minI), 1, 0, true},
		{GT, vector.NewInt(maxI), 1, 0, true},
		{GE, vector.NewTimestampMicros(200), 200, maxI, true},
		{EQ, vector.NewFloat(2.5), 1, 0, true},
		{EQ, vector.NewFloat(-3), -3, -3, true},
		{LT, vector.NewFloat(2.5), minI, 2, true},
		{LE, vector.NewFloat(2.5), minI, 2, true},
		{GT, vector.NewFloat(2.5), 3, maxI, true},
		{GE, vector.NewFloat(2.5), 3, maxI, true},
		{LT, vector.NewFloat(-2.5), minI, -3, true},
		{GE, vector.NewFloat(-2.5), -2, maxI, true},
		{GT, vector.NewFloat(1<<53 - 1), 1 << 53, maxI, true},
		{GT, vector.NewFloat(1 << 53), 0, 0, false},
		{LT, vector.NewFloat(-1 << 53), 0, 0, false},
		{LT, vector.NewFloat(1e19), 0, 0, false},
		{GE, vector.NewFloat(math.Inf(1)), 0, 0, false},
		{EQ, vector.NewFloat(math.NaN()), 0, 0, false},
		{NE, vector.NewInt(5), 0, 0, false},
		{EQ, vector.NewStr("5"), 0, 0, false},
		{EQ, vector.NewBool(true), 0, 0, false},
	}
	for _, c := range cases {
		lo, hi, ok := IntRange(c.op, c.val)
		if ok != c.ok || (ok && (lo != c.lo || hi != c.hi)) {
			t.Errorf("IntRange(%s %s) = [%d, %d] %v, want [%d, %d] %v", c.op, c.val, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
}

// An Int column compared with a non-integral Float constant compares with
// the constant itself, not its truncation.
func TestSelectIntsAgainstFractionalFloat(t *testing.T) {
	v := vector.FromInts([]int64{1, 2, 3})
	cases := []struct {
		op   CmpOp
		c    float64
		want []int32
	}{
		{GE, 2.5, []int32{2}},
		{LT, 2.5, []int32{0, 1}},
		{EQ, 2.5, []int32{}},
		{NE, 2.5, []int32{0, 1, 2}},
		{GT, math.Inf(-1), []int32{0, 1, 2}},
		{LT, 1e19, []int32{0, 1, 2}},
		{LE, math.NaN(), []int32{}},
	}
	for _, c := range cases {
		got := SelectPred(v, c.op, vector.NewFloat(c.c), nil)
		if got == nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("v %s %v = %#v, want %v", c.op, c.c, got, c.want)
		}
	}
	got := SelectRange(v, vector.NewFloat(1.5), vector.NewInt(3), true, true, nil)
	if !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Errorf("v between 1.5 and 3 = %v, want [1 2]", got)
	}
}

func TestSelectIntRangeEmptyIsNotNil(t *testing.T) {
	s := []int64{1, 2, 3}
	for _, cand := range [][]int32{nil, {0, 2}} {
		if got := SelectIntRangeInto(nil, s, 4, 16, cand); got == nil || len(got) != 0 {
			t.Errorf("disjoint range, cand %v: %#v, want a non-nil empty list", cand, got)
		}
		if got := SelectIntRangeInto(nil, s, 16, 4, cand); got == nil || len(got) != 0 {
			t.Errorf("empty range, cand %v: %#v, want a non-nil empty list", cand, got)
		}
	}
	if got := SelectIntRangeInto(nil, nil, 0, 1, nil); got == nil {
		t.Error("empty input: got nil, want a non-nil empty list")
	}
}

func TestSelectIntRangeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := make([]int64, 512)
	for i := range s {
		s[i] = rng.Int63n(32000)
	}
	v := vector.FromInts(s)
	cand := SelectIntRangeInto(nil, s, 0, 16000, nil)
	dst := SelectIntRangeInto(nil, s, 0, 32000, nil)
	if n := testing.AllocsPerRun(100, func() {
		dst = SelectIntRangeInto(dst, s, 1000, 9000, nil)
		dst = SelectIntRangeInto(dst, s, 1000, 9000, cand)
		dst = SelectPredInto(dst, v, GE, vector.NewInt(1000), nil)
		dst = SelectPredInto(dst, v, NE, vector.NewInt(1000), cand)
		dst = SelectRangeInto(dst, v, vector.NewInt(10), vector.NewFloat(900.5), false, true, nil)
	}); n != 0 {
		t.Errorf("allocs per run = %v, want 0 with a warmed dst", n)
	}
}

// naiveHolds is the per-element reference the fuzz target checks against:
// integer constants compare as integers, float constants as float64.
func naiveHolds(op CmpOp, e int64, val vector.Value) bool {
	if val.Kind == vector.Float {
		a, b := float64(e), val.F
		switch op {
		case EQ:
			return a == b
		case NE:
			return a != b
		case LT:
			return a < b
		case LE:
			return a <= b
		case GT:
			return a > b
		}
		return a >= b
	}
	b := val.I
	switch op {
	case EQ:
		return e == b
	case NE:
		return e != b
	case LT:
		return e < b
	case LE:
		return e <= b
	case GT:
		return e > b
	}
	return e >= b
}

// naiveSelect lists the positions of s (restricted to cand when non-nil)
// where keep holds, as a non-nil list.
func naiveSelect(s []int64, cand []int32, keep func(int64) bool) []int32 {
	out := []int32{}
	if cand == nil {
		for i, e := range s {
			if keep(e) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range cand {
		if keep(s[i]) {
			out = append(out, i)
		}
	}
	return out
}

// FuzzSelectIntRange checks the integer selections against a per-element
// reference. data is read as little-endian int64 values; a non-zero
// candMask restricts the selection to the positions of its set bits.
func FuzzSelectIntRange(f *testing.F) {
	le := func(xs ...int64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
		return b
	}
	edge := le(math.MinInt64, -1, 0, 1, 2, 3, math.MaxInt64, math.MinInt64+1, math.MaxInt64-1)
	f.Add(edge, uint8(EQ), int64(2), int64(3), true, false, uint64(0))
	f.Add(edge, uint8(LT), int64(math.MinInt64), int64(math.MaxInt64), false, false, uint64(0b1011))
	f.Add(edge, uint8(GT), int64(math.MaxInt64), int64(math.MinInt64), true, true, uint64(0))
	f.Add(edge, uint8(NE), int64(0), int64(0), false, true, uint64(1<<63))
	f.Add(le(5, 1, 9, 5, 3), uint8(GE), int64(5), int64(9), true, true, uint64(0b11111))

	f.Fuzz(func(t *testing.T, data []byte, op uint8, lo, hi int64, loIncl, hiIncl bool, candMask uint64) {
		s := make([]int64, len(data)/8)
		for i := range s {
			s[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var cand []int32
		if candMask != 0 {
			cand = []int32{}
			for i := range min(len(s), 64) {
				if candMask&(1<<i) != 0 {
					cand = append(cand, int32(i))
				}
			}
		}
		v := vector.FromInts(s)
		cop := CmpOp(op % 6)
		// A dirty, short destination checks that every result overwrites
		// from length 0 and grows when it must.
		dirty := func() []int32 { return []int32{-7, -7} }
		check := func(what string, got, want []int32) {
			t.Helper()
			if got == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s over %v cand %v: got %#v, want %v", what, s, cand, got, want)
			}
		}

		for _, val := range []vector.Value{vector.NewInt(lo), vector.NewFloat(float64(lo) / 4)} {
			want := naiveSelect(s, cand, func(e int64) bool { return naiveHolds(cop, e, val) })
			check("SelectPredInto "+cop.String()+" "+val.String(), SelectPredInto(dirty(), v, cop, val, cand), want)
		}

		loOp, hiOp := GT, LT
		if loIncl {
			loOp = GE
		}
		if hiIncl {
			hiOp = LE
		}
		for _, b := range [][2]vector.Value{
			{vector.NewInt(lo), vector.NewInt(hi)},
			{vector.NewFloat(float64(lo) / 4), vector.NewFloat(float64(hi) / 4)},
		} {
			want := naiveSelect(s, cand, func(e int64) bool { return naiveHolds(loOp, e, b[0]) && naiveHolds(hiOp, e, b[1]) })
			check("SelectRangeInto "+b[0].String()+" "+b[1].String(), SelectRangeInto(dirty(), v, b[0], b[1], loIncl, hiIncl, cand), want)
		}

		want := naiveSelect(s, cand, func(e int64) bool { return lo <= e && e <= hi })
		check("SelectIntRangeInto", SelectIntRangeInto(dirty(), s, lo, hi, cand), want)
	})
}

// BenchmarkSelectIntRange times one fused pass of the interval kernel over
// 512 values uniform in [0, 32000), at about 5 % and 50 % selectivity.
func BenchmarkSelectIntRange(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := make([]int64, 512)
	for i := range s {
		s[i] = rng.Int63n(32000)
	}
	for _, c := range []struct {
		name   string
		lo, hi int64
	}{
		{"sel=5%", 8000, 9599},
		{"sel=50%", 8000, 23999},
	} {
		b.Run(c.name, func(b *testing.B) {
			dst := SelectIntRangeInto(nil, s, c.lo, c.hi, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = SelectIntRangeInto(dst, s, c.lo, c.hi, nil)
			}
			selSink = dst
		})
	}
}

// selSink keeps benchmark results live.
var selSink []int32
