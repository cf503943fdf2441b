// Command datacell runs a DataCell instance from a SQL script: it creates
// the baskets, registers the continuous queries, optionally attaches TCP
// receptors and emitters, and streams results to stdout.
//
//	datacell -script app.sql
//	datacell -script app.sql -listen trades=:9000 -serve big=:9001
//	datacell -script app.sql -listen trades=:9000 -shards 4
//	echo 'ACME|250.0' | datacell -script app.sql -feed trades -print big
//	lrgen ... | datacell -script lr.sql -feed input -binary
//	datacell -script app.sql -listen trades=:9000 -admin :9090
//
// The script is standard DataCell SQL: create basket/table, declare/set,
// continuous queries with [basket expressions], and with…begin…end splits.
// Continuous select statements are registered under q1, q2, … in script
// order.
//
// TCP receptors auto-detect the wire protocol per connection: the binary
// columnar batch format and the textual pipe-separated format coexist on
// the same socket. -shards runs several receptor shards per -listen
// (parallel sockets on a wildcard port, parallel accept loops on a fixed
// one); -binary reads binary frames instead of text lines from stdin in
// -feed mode.
//
// -admin starts the observability HTTP server (Prometheus /metrics,
// /snapshot, /events, net/http/pprof). In textual -feed mode, lines
// starting with a backslash are meta-commands instead of tuples:
// \stats prints the live engine snapshot, \events the event trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"datacell"
)

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	script := flag.String("script", "", "SQL script to execute (required)")
	feed := flag.String("feed", "", "stream to feed with tuples from stdin")
	binary := flag.Bool("binary", false, "stdin carries binary batch frames instead of text lines (with -feed or -relay)")
	shards := flag.Int("shards", 1, "receptor shards per -listen address")
	print := flag.String("print", "", "query whose results are printed to stdout")
	walDir := flag.String("wal", "", "directory for the durable ingest WAL (recovers on start)")
	admin := flag.String("admin", "", "serve /metrics, /snapshot, /events and /debug/pprof on this address")
	relay := flag.String("relay", "", "forward stdin to a remote receptor at this address (no engine; retries with backoff)")
	var listens, serves listFlag
	flag.Var(&listens, "listen", "stream=addr: attach a TCP receptor group (repeatable)")
	flag.Var(&serves, "serve", "query=addr: serve a query's results over TCP (repeatable)")
	flag.Parse()

	if *relay != "" {
		if err := relayStdin(*relay, *binary); err != nil {
			fatal(err)
		}
		return
	}
	if *script == "" {
		fmt.Fprintln(os.Stderr, "datacell: -script is required")
		os.Exit(2)
	}
	src, err := os.ReadFile(*script)
	if err != nil {
		fatal(err)
	}
	var opts []datacell.Option
	if *walDir != "" {
		opts = append(opts, datacell.WithWAL(*walDir))
	}
	eng := datacell.New(opts...)
	if err := eng.Err(); err != nil {
		fatal(err)
	}
	infos, err := eng.Exec(string(src))
	if err != nil {
		fatal(err)
	}
	for _, info := range infos {
		if info.Continuous {
			fmt.Fprintf(os.Stderr, "registered continuous query %s\n", info.Name)
		}
	}
	if *walDir != "" {
		rec, err := eng.Recover()
		if err != nil {
			fatal(err)
		}
		if rec.Frames > 0 || rec.TruncatedBytes > 0 {
			fmt.Fprintf(os.Stderr, "wal: recovered %d frames (%d tuples) across %d stream(s), repaired %d torn bytes\n",
				rec.Frames, rec.Tuples, rec.Streams, rec.TruncatedBytes)
		}
	}

	for _, spec := range listens {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -listen %q, want stream=addr", spec))
		}
		l, err := eng.ListenIngest(name, addr, datacell.IngestOptions{Shards: *shards})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "stream %s listening on %s\n", name, strings.Join(l.Addrs(), ", "))
	}
	for _, spec := range serves {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -serve %q, want query=addr", spec))
		}
		bound, err := eng.ServeTCP(name, addr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "query %s served on %s\n", name, bound)
	}
	if *print != "" {
		_, err := eng.SubscribeQuery(*print, datacell.SubscribeOptions{OnEmit: func(em datacell.Emit) {
			for _, row := range em.Table.Rows {
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = fmt.Sprint(v)
				}
				fmt.Println(strings.Join(parts, "|"))
			}
		}})
		if err != nil {
			fatal(err)
		}
	}

	if err := eng.Start(); err != nil {
		fatal(err)
	}
	defer eng.Stop()

	if *admin != "" {
		srv, err := eng.ServeAdmin(*admin)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "admin server on http://%s (/metrics /snapshot /events /debug/pprof)\n", srv.Addr())
	}

	if *feed != "" {
		// Feed stdin through an in-process receptor and exit when it ends.
		feeder := feedStdin
		if *binary {
			feeder = feedStdinBinary
		}
		if err := feeder(eng, *feed); err != nil {
			fatal(err)
		}
		eng.Drain(drainTimeout)
		printSnapshot(eng)
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	printSnapshot(eng)
}

// printSnapshot reports the engine's closing state — one consistent
// Engine.Snapshot instead of stitched Stats/Groups calls — to stderr.
func printSnapshot(eng *datacell.Engine) {
	snap := eng.Snapshot()
	fmt.Fprintf(os.Stderr, "engine: strategy=%s parallelism=%d queries=%d subscriptions=%d\n",
		snap.Strategy, snap.Parallelism, len(snap.Queries), snap.Subscriptions)
	for _, q := range snap.Queries {
		fmt.Fprintf(os.Stderr, "query %s: fires=%d out=%d pending=%d errors=%d\n",
			q.Name, q.Fires, q.OutRows, q.Pending, q.Errors)
	}
	for _, g := range snap.Groups {
		fmt.Fprintf(os.Stderr, "stream %s: ingested=%d stalls=%d rewires=%d\n",
			g.Stream, g.IngestTuples, g.IngestStalls, g.Rewires)
	}
	if snap.Recovery != nil {
		fmt.Fprintf(os.Stderr, "wal %s: recovered %d frames (%d tuples)\n",
			snap.WALDir, snap.Recovery.Frames, snap.Recovery.Tuples)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "datacell: %v\n", err)
	os.Exit(1)
}
