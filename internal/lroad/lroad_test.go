package lroad

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

// feedNetwork pushes tuples into the network and fires all collections.
func feedNetwork(t *testing.T, net *Network, tuples []Tuple) {
	t.Helper()
	names, types := InputSchema()
	batch := bat.NewEmptyRelation(names, types)
	for _, tp := range tuples {
		batch.AppendRow(tp.Values()...)
	}
	if _, err := net.In.Append(batch); err != nil {
		t.Fatal(err)
	}
	for _, col := range net.Collections {
		for _, f := range col.Factories {
			if _, err := f.TryFire(); err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
		}
	}
}

func posReport(time, vid, spd, xway, lane, dir, pos int64) Tuple {
	return Tuple{Typ: TypePosition, Time: time, VID: vid, Spd: spd,
		XWay: xway, Lane: lane, Dir: dir, Seg: pos / SegFeet, Pos: pos}
}

func TestTollFor(t *testing.T) {
	cases := []struct {
		lav      float64
		cars     int
		accident bool
		want     int64
	}{
		{30, 60, false, 200}, // 2*(60-50)^2
		{30, 51, false, 2},
		{30, 50, false, 0},  // not enough cars
		{40, 100, false, 0}, // moving fine
		{10, 100, true, 0},  // accident zone
	}
	for _, c := range cases {
		if got := TollFor(c.lav, c.cars, c.accident); got != c.want {
			t.Errorf("TollFor(%v,%d,%v) = %d, want %d", c.lav, c.cars, c.accident, got, c.want)
		}
	}
}

func TestAccidentAffects(t *testing.T) {
	// Eastbound (dir 0): accident ahead means higher segment.
	if !AccidentAffects(0, 10, 14) || AccidentAffects(0, 10, 15) || AccidentAffects(0, 10, 9) {
		t.Error("eastbound range wrong")
	}
	// Westbound (dir 1): accident ahead means lower segment.
	if !AccidentAffects(1, 10, 6) || AccidentAffects(1, 10, 5) || AccidentAffects(1, 10, 11) {
		t.Error("westbound range wrong")
	}
}

func TestSplitRoutesByType(t *testing.T) {
	net, err := NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	feedNetwork(t, net, []Tuple{
		posReport(1, 1, 50, 0, 1, 0, 100),
		{Typ: TypeBalance, Time: 1, VID: 1, QID: 7},
		{Typ: TypeDailyExp, Time: 1, VID: 1, QID: 8, Day: 3},
	})
	// Balance and day queries were answered (baskets drained through).
	if net.BalOut.Len() != 1 {
		t.Errorf("balance answers = %d", net.BalOut.Len())
	}
	if net.DayOut.Len() != 1 {
		t.Errorf("day answers = %d", net.DayOut.Len())
	}
	// The position report produced a crossing (new car) and a toll alert.
	if net.TollAlerts.Len() != 1 {
		t.Errorf("toll alerts = %d", net.TollAlerts.Len())
	}
}

func TestStoppedCarAndAccidentDetection(t *testing.T) {
	net, err := NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	const pos = 10 * SegFeet
	// Two cars each report the same position four times, 30 s apart.
	for r := int64(0); r < 4; r++ {
		feedNetwork(t, net, []Tuple{
			posReport(r*30, 1, 0, 0, 2, 0, pos),
			posReport(r*30, 2, 0, 0, 2, 0, pos),
		})
	}
	tap := net.AccEventsTap.Snapshot()
	if tap.Len() != 1 {
		t.Fatalf("accident events = %d, want 1", tap.Len())
	}
	if tap.ColByName("active").Ints()[0] != 1 || tap.ColByName("seg").Ints()[0] != 10 {
		t.Errorf("event: %v", tap)
	}
	// One car moves away: accident clears.
	feedNetwork(t, net, []Tuple{posReport(120, 1, 40, 0, 2, 0, pos+4000)})
	tap = net.AccEventsTap.Snapshot()
	if tap.Len() != 2 || tap.ColByName("active").Ints()[1] != 0 {
		t.Fatalf("clear event missing: %v", tap)
	}
}

func TestAccidentAlertSuppressesToll(t *testing.T) {
	net, err := NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	const accPos = 20 * SegFeet
	// Create an accident at segment 20.
	for r := int64(0); r < 4; r++ {
		feedNetwork(t, net, []Tuple{
			posReport(r*30, 1, 0, 0, 2, 0, accPos),
			posReport(r*30, 2, 0, 0, 2, 0, accPos),
		})
	}
	net.TollAlerts.TakeAll()
	net.AccAlerts.TakeAll()
	// A third car crosses into segment 17, eastbound: accident at 20 is
	// three segments downstream -> accident alert, no toll.
	feedNetwork(t, net, []Tuple{posReport(130, 3, 55, 0, 1, 0, 17*SegFeet)})
	if net.AccAlerts.Len() != 1 {
		t.Errorf("accident alerts = %d", net.AccAlerts.Len())
	}
	if net.TollAlerts.Len() != 0 {
		t.Errorf("toll alerts = %d, want 0", net.TollAlerts.Len())
	}
	// A car on the other direction is unaffected.
	feedNetwork(t, net, []Tuple{posReport(131, 4, 55, 0, 1, 1, 17*SegFeet)})
	if net.TollAlerts.Len() != 1 {
		t.Errorf("other direction should get a toll alert")
	}
}

func TestStatisticsAndTollAssessment(t *testing.T) {
	net, err := NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Minute 0: 60 distinct slow cars in segment 5 -> congestion.
	var tuples []Tuple
	for v := int64(100); v < 160; v++ {
		tuples = append(tuples, posReport(10, v, 20, 0, 1, 0, 5*SegFeet+v))
	}
	feedNetwork(t, net, tuples)
	// Minute 1: the minute-0 bucket flushes; a car crosses into segment 5.
	feedNetwork(t, net, []Tuple{posReport(70, 999, 30, 0, 1, 0, 5*SegFeet+9)})
	// The crossing car pays 2*(60-50)^2 = 200.
	alerts := net.TollAlerts.Snapshot()
	var found bool
	vids := alerts.ColByName("vid").Ints()
	tolls := alerts.ColByName("toll").Ints()
	for i := range vids {
		if vids[i] == 999 {
			found = true
			if tolls[i] != 200 {
				t.Errorf("toll = %d, want 200", tolls[i])
			}
		}
	}
	if !found {
		t.Fatal("no toll alert for crossing car")
	}
	// The toll lands in the car's balance.
	bal := net.Balances.Snapshot()
	bvid := bal.ColByName("vid").Ints()
	bbal := bal.ColByName("bal").Ints()
	var got int64 = -1
	for i := range bvid {
		if bvid[i] == 999 {
			got = bbal[i]
		}
	}
	if got != 200 {
		t.Errorf("balance = %d, want 200", got)
	}
	// A balance request is answered with the accumulated balance.
	feedNetwork(t, net, []Tuple{{Typ: TypeBalance, Time: 80, VID: 999, QID: 42}})
	ans := net.BalOut.Snapshot()
	if ans.Len() != 1 || ans.ColByName("bal").Ints()[0] != 200 {
		t.Errorf("balance answer: %v", ans)
	}
}

func TestDailyExpenditureAnswers(t *testing.T) {
	net, err := NewNetwork(nil)
	if err != nil {
		t.Fatal(err)
	}
	feedNetwork(t, net, []Tuple{{Typ: TypeDailyExp, Time: 5, VID: 1234, QID: 9, Day: 17}})
	ans := net.DayOut.Snapshot()
	if ans.Len() != 1 {
		t.Fatalf("answers = %d", ans.Len())
	}
	want := HistToll(1234%HistVIDBuckets, 17)
	if got := ans.ColByName("total").Ints()[0]; got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
}

func TestGeneratorRampAndReports(t *testing.T) {
	cfg := GenConfig{SF: 1, Duration: 600, Seed: 3, XWays: 2}
	g := NewGenerator(cfg)
	var first, last int
	for !g.Done() {
		n := len(g.Tick())
		if g.Now() == 60 {
			first = n
		}
		last = n
	}
	if g.TotalTuples == 0 {
		t.Fatal("no tuples generated")
	}
	if last <= first {
		t.Errorf("arrival rate did not ramp: first=%d last=%d", first, last)
	}
	if g.TotalPos+g.TotalBalQ+g.TotalDayQ != g.TotalTuples {
		t.Errorf("tuple accounting: %d+%d+%d != %d",
			g.TotalPos, g.TotalBalQ, g.TotalDayQ, g.TotalTuples)
	}
}

// genSHA hashes every tuple and the accident schedule of a generator's
// first ticks.
func genSHA(t *testing.T, cfg GenConfig, ticks int) string {
	t.Helper()
	g := NewGenerator(cfg)
	h := sha256.New()
	for i := 0; i < ticks; i++ {
		if err := binary.Write(h, binary.LittleEndian, g.Tick()); err != nil {
			t.Fatal(err)
		}
	}
	if err := binary.Write(h, binary.LittleEndian, g.Accidents()); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGeneratorIsAFunctionOfItsSeed(t *testing.T) {
	cfg := GenConfig{SF: 1, Duration: 10800, Seed: 11, XWays: 2}
	a, b := genSHA(t, cfg, 600), genSHA(t, cfg, 600)
	if a != b {
		t.Fatalf("one seed, two streams: %s vs %s", a, b)
	}
	cfg.Seed++
	if c := genSHA(t, cfg, 600); c == a {
		t.Errorf("seeds %d and %d yield the same stream %s", cfg.Seed-1, cfg.Seed, a)
	}
}

func TestGeneratorSchedulesDetectableAccidents(t *testing.T) {
	cfg := GenConfig{SF: 0.5, Duration: 1800, Seed: 5, XWays: 1}
	g := NewGenerator(cfg)
	for !g.Done() {
		g.Tick()
	}
	accs := g.Accidents()
	if len(accs) == 0 {
		t.Fatal("no accidents scheduled in 30 minutes")
	}
	for _, a := range accs {
		if a.End-a.Start < ReportEvery*StopsToReport {
			t.Errorf("accident too short to detect: %+v", a)
		}
		if a.VID1 == a.VID2 {
			t.Errorf("accident with one car: %+v", a)
		}
	}
}

func TestEndToEndShortRunValidates(t *testing.T) {
	cfg := GenConfig{SF: 0.3, Duration: 1200, Seed: 7, XWays: 1}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIn == 0 {
		t.Fatal("no input processed")
	}
	v := Validate(res)
	for _, e := range v.Errors {
		t.Errorf("validation: %s", e)
	}
	if v.ExpectedAccidents > 0 && v.DetectedAccidents != v.ExpectedAccidents {
		t.Errorf("detected %d of %d accidents", v.DetectedAccidents, v.ExpectedAccidents)
	}
	// Deadlines: every collection activation stays far below the 5 s
	// (and Q6's 10 s) response-time goals.
	for name, maxp := range res.MaxProc {
		if maxp > 5*time.Second {
			t.Errorf("%s exceeded the 5 s deadline: %v", name, maxp)
		}
	}
	// Figures are derivable.
	if len(res.TuplesPerSec) != int(cfg.Duration) {
		t.Errorf("fig8 series length %d", len(res.TuplesPerSec))
	}
	if len(res.Q7AvgSeries()) == 0 {
		t.Error("fig9 series empty")
	}
	if len(res.LoadSeries("Q1")) == 0 {
		t.Error("fig7 series empty")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cfg := GenConfig{SF: 0.2, Duration: 600, Seed: 11, XWays: 1}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Validate(res).OK() {
		t.Fatal("baseline run should validate")
	}
	// Corrupt a toll alert: conservation must fail.
	tolls := res.TollAlerts.ColByName("toll")
	tolls.Set(0, vector.NewInt(tolls.Ints()[0]+1))
	if Validate(res).OK() {
		t.Error("validator missed toll corruption")
	}
}

func TestValidateCatchesMissingAccidentEvent(t *testing.T) {
	cfg := GenConfig{SF: 0.2, Duration: 900, Seed: 13, XWays: 1}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := Validate(res); !v.OK() || v.DetectedAccidents == 0 {
		t.Fatalf("baseline should validate with accidents: %+v", v.Errors)
	}
	// Drop all accident events: detection rule must fail.
	res.AccEvents.Clear()
	if Validate(res).OK() {
		t.Error("validator missed deleted accident events")
	}
}

func TestValidateCatchesLostAlerts(t *testing.T) {
	cfg := GenConfig{SF: 0.2, Duration: 600, Seed: 17, XWays: 1}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Validate(res).OK() {
		t.Fatal("baseline should validate")
	}
	// Pretend one crossing was never answered.
	res.Crossings++
	if Validate(res).OK() {
		t.Error("validator missed a lost alert")
	}
}

func TestValidateCatchesWrongDailyAnswer(t *testing.T) {
	cfg := GenConfig{SF: 0.2, Duration: 600, Seed: 19, XWays: 1}
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DayAnswers.Len() == 0 {
		t.Skip("no daily answers in this short run")
	}
	tot := res.DayAnswers.ColByName("total")
	tot.Set(0, vector.NewInt(tot.Ints()[0]+1))
	if Validate(res).OK() {
		t.Error("validator missed a wrong daily-expenditure answer")
	}
}

func TestHarnessSeries(t *testing.T) {
	pts := []LoadPoint{
		{BenchSec: 10, Proc: 2 * time.Millisecond},
		{BenchSec: 20, Proc: 4 * time.Millisecond},
		{BenchSec: 70, Proc: 6 * time.Millisecond},
	}
	out := avgByMinute(pts)
	if len(out) != 2 {
		t.Fatalf("series: %+v", out)
	}
	if out[0].Minute != 0 || out[0].Value != 3 {
		t.Errorf("minute 0: %+v", out[0])
	}
	if out[1].Minute != 1 || out[1].Value != 6 {
		t.Errorf("minute 1: %+v", out[1])
	}
	if avgByMinute(nil) != nil {
		t.Error("empty series should be nil")
	}
}
