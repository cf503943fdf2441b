package lroad

import (
	"math"
	"math/rand"
	"slices"
)

// GenConfig parameterises the traffic generator.
type GenConfig struct {
	// SF is the Linear Road scale factor: it scales the arrival-rate ramp.
	// SF 1 ramps from ~15-20 tuples/s to ~1700 tuples/s over a full
	// three-hour run, matching the paper's Figure 8.
	SF float64
	// Duration is the benchmark length in seconds (the paper runs 10800).
	Duration int64
	// Seed makes runs reproducible.
	Seed int64
	// XWays is the number of expressways (the spec uses one per 0.5 SF).
	XWays int64
}

// DefaultConfig returns the configuration of a full paper run at the given
// scale factor.
func DefaultConfig(sf float64) GenConfig {
	xways := int64(math.Max(1, math.Round(sf/0.5)))
	return GenConfig{SF: sf, Duration: 10800, Seed: 1, XWays: xways}
}

// car is the generator-internal vehicle state.
type car struct {
	vid     int64
	xway    int64
	dir     int64
	lane    int64
	pos     int64 // feet
	spd     int64 // mph
	phase   int64 // report offset within the 30 s cycle
	stopped bool  // scripted accident participant
	stopPos int64
	stopEnd int64
}

// Generator produces the Linear Road input stream second by second, with
// ground-truth accident scheduling. Cars enter according to the arrival
// ramp, report their position every 30 seconds, and exit at the end of the
// expressway. Accidents are scripted: two cars are forced to the same
// position at speed zero for long enough to be detectable (four
// consecutive reports each), then released. Accident frequency increases
// after the first hour, as in the paper's workload description.
type Generator struct {
	cfg     GenConfig
	rng     *rand.Rand
	now     int64
	nextVID int64
	nextQID int64
	// cars holds the active cars in vid order. Every pass over them draws
	// from rng, so their order is part of what a seed determines: a slice,
	// never a map.
	cars []*car

	accidents    []Accident // ground truth, in schedule order
	nextAccCheck int64

	TotalTuples int64
	TotalPos    int64 // type-0 tuples emitted
	TotalBalQ   int64 // type-2 tuples emitted
	TotalDayQ   int64 // type-3 tuples emitted
}

// NewGenerator returns a generator for the given configuration.
func NewGenerator(cfg GenConfig) *Generator {
	if cfg.XWays <= 0 {
		cfg.XWays = 1
	}
	return &Generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Now returns the current benchmark second.
func (g *Generator) Now() int64 { return g.now }

// Done reports whether the benchmark duration has elapsed.
func (g *Generator) Done() bool { return g.now >= g.cfg.Duration }

// Accidents returns the ground-truth accident schedule so far.
func (g *Generator) Accidents() []Accident { return g.accidents }

// Rate returns the target position-report rate (tuples/second) at
// benchmark second t: a slowly accelerating ramp matching Figure 8.
func (g *Generator) Rate(t int64) float64 {
	frac := float64(t) / float64(g.cfg.Duration)
	return g.cfg.SF * (17 + 1683*math.Pow(frac, 2.2))
}

// Tick produces the tuples of the current benchmark second and advances
// the clock.
func (g *Generator) Tick() []Tuple {
	t := g.now
	g.now++

	// Population control: each car reports once per 30 s, so the active
	// car count follows rate * 30.
	target := int(g.Rate(t) * ReportEvery)
	for len(g.cars) < target {
		g.spawn(t)
	}

	g.maybeScheduleAccident(t)

	var out []Tuple
	for _, c := range g.cars {
		g.advance(c, t)
		if (t+c.phase)%ReportEvery == 0 {
			g.TotalPos++
			out = append(out, Tuple{
				Typ: TypePosition, Time: t, VID: c.vid, Spd: c.spd,
				XWay: c.xway, Lane: c.lane, Dir: c.dir,
				Seg: c.pos / SegFeet, Pos: c.pos,
			})
			// A fraction of reporting cars also issue historical queries.
			r := g.rng.Float64()
			switch {
			case r < 0.01:
				g.nextQID++
				g.TotalBalQ++
				out = append(out, Tuple{Typ: TypeBalance, Time: t, VID: c.vid, QID: g.nextQID})
			case r < 0.015:
				g.nextQID++
				g.TotalDayQ++
				out = append(out, Tuple{
					Typ: TypeDailyExp, Time: t, VID: c.vid, QID: g.nextQID,
					Day: 1 + g.rng.Int63n(NumDays-1),
				})
			}
		}
	}
	// Remove cars that left the expressway, keeping the rest in vid order.
	g.cars = slices.DeleteFunc(g.cars, func(c *car) bool { return c.pos >= NumSegs*SegFeet })
	g.TotalTuples += int64(len(out))
	return out
}

func (g *Generator) spawn(t int64) {
	g.nextVID++
	c := &car{
		vid:   g.nextVID,
		xway:  g.rng.Int63n(g.cfg.XWays),
		dir:   g.rng.Int63n(2),
		lane:  1 + g.rng.Int63n(3),
		pos:   g.rng.Int63n(NumSegs*SegFeet/4) * 4, // enter in the first quarter
		spd:   40 + g.rng.Int63n(60),
		phase: g.rng.Int63n(ReportEvery),
	}
	g.cars = append(g.cars, c) // vids ascend, so the slice stays sorted
}

func (g *Generator) advance(c *car, t int64) {
	if c.stopped {
		if t >= c.stopEnd {
			c.stopped = false
			c.spd = 30 + g.rng.Int63n(40)
		} else {
			c.pos = c.stopPos
			c.spd = 0
			return
		}
	}
	// Speed wanders a little; position advances at spd mph = spd*5280/3600 ft/s.
	c.spd += g.rng.Int63n(7) - 3
	if c.spd < 30 {
		c.spd = 30
	}
	if c.spd > 100 {
		c.spd = 100
	}
	c.pos += c.spd * SegFeet / 3600
}

// maybeScheduleAccident scripts accidents with a frequency that grows
// after the first hour (the paper observes accident work increasing from
// minute 60 on). Two moving cars on the same expressway and direction are
// forced to one position at speed zero for long enough that both file four
// identical reports.
func (g *Generator) maybeScheduleAccident(t int64) {
	if t < g.nextAccCheck {
		return
	}
	// Interval between accidents: 10 min early on, shrinking to 1 min.
	frac := float64(t) / float64(g.cfg.Duration)
	gap := int64(600 - 540*math.Min(1, math.Max(0, (frac-0.33)/0.5)))
	g.nextAccCheck = t + gap

	// Pick two candidate cars on the same (xway, dir), both moving.
	var a, b *car
	for _, c := range g.cars {
		if c.stopped || c.pos > (NumSegs-10)*SegFeet {
			continue
		}
		if a == nil {
			a = c
			continue
		}
		if c.xway == a.xway && c.dir == a.dir && c.vid != a.vid {
			b = c
			break
		}
	}
	if a == nil || b == nil {
		return
	}
	// Stop both long enough for 4 reports each plus slack.
	dur := int64(ReportEvery*StopsToReport + 60 + g.rng.Int63n(120))
	pos := a.pos
	for _, c := range []*car{a, b} {
		c.stopped = true
		c.stopPos = pos
		c.stopEnd = t + dur
		c.lane = 2
		c.pos = pos
		c.spd = 0
	}
	g.accidents = append(g.accidents, Accident{
		XWay: a.xway, Dir: a.dir, Pos: pos, Seg: pos / SegFeet,
		Start: t, End: t + dur, VID1: a.vid, VID2: b.vid,
	})
}
