package main

import (
	"fmt"
	"os"
	"strings"

	"datacell"
)

// metaCommand handles backslash meta-commands interleaved with tuples on
// stdin in -feed mode (psql-style): `\stats` prints the live engine
// snapshot, `\events` the rewire/recovery trace. Returns false when the
// line is not a meta-command and should be fed as a tuple. Output goes to
// stderr so it never mixes into -print result rows on stdout.
func metaCommand(eng *datacell.Engine, line string) bool {
	if !strings.HasPrefix(line, `\`) {
		return false
	}
	switch strings.TrimSpace(line) {
	case `\stats`:
		printStats(eng)
	case `\events`:
		printEvents(eng)
	default:
		fmt.Fprintf(os.Stderr, "datacell: unknown meta-command %q (try \\stats or \\events)\n", line)
	}
	return true
}

// printStats renders one consistent Snapshot: engine state, per-query
// firing/latency stats, per-stream ingest and basket occupancy, and WAL
// activity — the CLI twin of the admin server's /snapshot.
func printStats(eng *datacell.Engine) {
	snap := eng.Snapshot()
	fmt.Fprintf(os.Stderr, "engine: strategy=%s parallelism=%d queries=%d subscriptions=%d events=%d\n",
		snap.Strategy, snap.Parallelism, len(snap.Queries), snap.Subscriptions, snap.EventsTotal)
	for _, q := range snap.Queries {
		fmt.Fprintf(os.Stderr, "query %s: fires=%d out=%d pending=%d errors=%d busy=%v\n",
			q.Name, q.Fires, q.OutRows, q.Pending, q.Errors, q.Busy)
		if q.LatCount > 0 {
			fmt.Fprintf(os.Stderr, "  latency: n=%d p50=%v p99=%v p99.9=%v max=%v\n",
				q.LatCount, q.LatP50, q.LatP99, q.LatP999, q.LatMax)
		}
	}
	for _, g := range snap.Groups {
		fmt.Fprintf(os.Stderr, "stream %s: strategy=%s partitions=%d ingested=%d stalls=%d rewires=%d\n",
			g.Stream, g.Strategy, g.Partitions, g.IngestTuples, g.IngestStalls, g.Rewires)
	}
	for _, b := range snap.Baskets {
		fmt.Fprintf(os.Stderr, "basket %s: resident=%d high_water=%d appended=%d consumed=%d dropped=%d\n",
			b.Stream, b.Resident, b.HighWater, b.Appended, b.Consumed, b.Dropped)
	}
	for _, w := range snap.WAL {
		fmt.Fprintf(os.Stderr, "wal %s: frames=%d bytes=%d syncs=%d rotations=%d batches=%d max_batch=%d\n",
			w.Stream, w.Frames, w.Bytes, w.Syncs, w.Rotations, w.Batches, w.MaxBatch)
	}
}

// printEvents dumps the retained event trace, oldest first.
func printEvents(eng *datacell.Engine) {
	events := eng.Events()
	if len(events) == 0 {
		fmt.Fprintln(os.Stderr, "datacell: no events recorded yet")
		return
	}
	for _, ev := range events {
		line := fmt.Sprintf("#%d %s %s/%s", ev.Seq, ev.Time.Format("15:04:05.000"), ev.Subsystem, ev.Kind)
		if ev.Name != "" {
			line += " " + ev.Name
		}
		if ev.Reason != "" {
			line += " reason=" + ev.Reason
		}
		if ev.Duration > 0 {
			line += fmt.Sprintf(" took=%v", ev.Duration)
		}
		if ev.Fields != "" {
			line += " " + ev.Fields
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
