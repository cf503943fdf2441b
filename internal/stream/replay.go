package stream

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"time"
)

// Replayer feeds a recorded tuple trace (one pipe-separated tuple per
// line, as produced by cmd/lrgen or EncodeRelation) to an emitter —
// typically a connection to a receptor — optionally pacing tuples by a
// timestamp column, so a three-hour trace can be replayed at any speedup.
// It is the sensor tool of the paper's experimental setup.
type Replayer struct {
	// TimeCol is the zero-based field carrying the tuple's timestamp in
	// seconds; -1 disables pacing (replay as fast as possible).
	TimeCol int
	// Speedup divides the trace's inter-tuple gaps: 60 replays an hour of
	// trace per minute. Values <= 0 mean 1.
	Speedup float64
	// Sleep is replaceable for tests; defaults to time.Sleep.
	Sleep func(d time.Duration)

	Lines  int64 // lines replayed
	Paused time.Duration
}

// NewReplayer returns a pacing replayer on the given timestamp column.
func NewReplayer(timeCol int, speedup float64) *Replayer {
	return &Replayer{TimeCol: timeCol, Speedup: speedup}
}

// ReplayFunc paces the trace through arbitrary emitters: every
// non-empty line is handed to emit in trace order, and flush (if
// non-nil) runs before every pacing pause and once at the end, so
// downstream sees tuples at their paced times whatever the transport —
// a single writer, several sharded connections, a binary frame encoder.
func (rp *Replayer) ReplayFunc(r io.Reader, emit func(line string) error, flush func() error) error {
	sleep := rp.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	speed := rp.Speedup
	if speed <= 0 {
		speed = 1
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var last int64 = -1
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rp.TimeCol >= 0 {
			if ts, ok := fieldInt(line, rp.TimeCol); ok {
				if last >= 0 && ts > last {
					gap := time.Duration(float64(ts-last) * float64(time.Second) / speed)
					if flush != nil {
						if err := flush(); err != nil {
							return err
						}
					}
					sleep(gap)
					rp.Paused += gap
				}
				last = ts
			}
		}
		if err := emit(line); err != nil {
			return err
		}
		rp.Lines++
	}
	if flush != nil {
		if err := flush(); err != nil {
			return err
		}
	}
	return sc.Err()
}

// fieldInt extracts the i-th pipe-separated field as an integer.
func fieldInt(line string, i int) (int64, bool) {
	for ; i > 0; i-- {
		k := strings.IndexByte(line, '|')
		if k < 0 {
			return 0, false
		}
		line = line[k+1:]
	}
	if k := strings.IndexByte(line, '|'); k >= 0 {
		line = line[:k]
	}
	v, err := strconv.ParseInt(line, 10, 64)
	return v, err == nil
}
