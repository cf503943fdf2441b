package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/faultpoint"
	"datacell/internal/stream"
	"datacell/internal/vector"
)

// FaultDeliver is the faultpoint site between the WAL tee and the basket
// append: a crash here models dying after a frame is durably logged but
// before it is routed, the case recovery must replay.
const FaultDeliver = "ingest.deliver"

// BatchLog is the write-ahead tee of the delivery path. Every accepted
// batch — binary frames and textual lines alike, re-encoded through the
// one wire format — is logged before it is routed into baskets, so the
// WAL is a faithful prefix of what the kernel saw. *wal.Log implements it;
// the indirection keeps ingest free of a disk dependency.
type BatchLog interface {
	LogBatch(rel *bat.Relation) (uint64, error)
}

// Sink is where a receptor delivers decoded batches: the stream basket
// (splitter-fed path) or a partitioned basket (route-at-ingest path).
// Occupancy reports the largest resident tuple count across the sink's
// scanned destinations — the backpressure signal; the catch-all of range
// routing is excluded, since no factory drains it.
type Sink interface {
	Append(rel *bat.Relation) (int, error)
	Occupancy() int
	Describe() string
}

// basketSink delivers to a single stream basket.
type basketSink struct{ b *basket.Basket }

func (s basketSink) Append(rel *bat.Relation) (int, error) { return s.b.Append(rel) }
func (s basketSink) Occupancy() int                        { return s.b.Len() }
func (s basketSink) Describe() string                      { return "stream basket" }

// BasketSink returns a sink appending to a plain stream basket.
func BasketSink(b *basket.Basket) Sink { return basketSink{b: b} }

// partitionedSink routes every batch through the partitioned basket's
// Router straight into the destination partitions (and catch-all),
// skipping the stream basket and the splitter transition entirely.
type partitionedSink struct{ pb *basket.PartitionedBasket }

func (s partitionedSink) Append(rel *bat.Relation) (int, error) { return s.pb.Append(rel) }

func (s partitionedSink) Occupancy() int {
	occ := 0
	for _, p := range s.pb.Parts() {
		if n := p.Len(); n > occ {
			occ = n
		}
	}
	return occ
}

func (s partitionedSink) Describe() string {
	return fmt.Sprintf("route-at-ingest %s over %d partitions", s.pb.Describe(), s.pb.NumPartitions())
}

// PartitionedSink returns a sink routing batches straight into the
// partitions of pb.
func PartitionedSink(pb *basket.PartitionedBasket) Sink { return partitionedSink{pb: pb} }

// fanoutSink delivers every batch to all of its member sinks — the
// route-at-ingest form of the separate strategy's replicator: each
// member (and tap) receives its own copy of the batch directly, routed
// through the member's partitioned basket when it has one, so neither
// the stream basket nor the replicator and splitter transitions sit on
// the ingest path.
type fanoutSink struct{ sinks []Sink }

func (s fanoutSink) Append(rel *bat.Relation) (int, error) {
	n := 0
	var firstErr error
	for _, sub := range s.sinks {
		m, err := sub.Append(rel)
		if m > n {
			// Report the stream-level tuple count, not the sum over copies:
			// the receptor's Tuples counter means "stream tuples delivered",
			// matching the single-sink paths.
			n = m
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return n, firstErr
}

func (s fanoutSink) Occupancy() int {
	occ := 0
	for _, sub := range s.sinks {
		if n := sub.Occupancy(); n > occ {
			occ = n
		}
	}
	return occ
}

func (s fanoutSink) Describe() string {
	return fmt.Sprintf("route-at-ingest fan-out to %d member sinks", len(s.sinks))
}

// FanoutSink returns a sink replicating every batch into each member
// sink. Occupancy is the maximum across members, so backpressure
// engages when the slowest member lags.
func FanoutSink(sinks []Sink) Sink { return fanoutSink{sinks: sinks} }

// Target resolves the sink of every delivery. Acquire returns the current
// sink and a release function; the sink stays valid until release is
// called. Implementations guard sink swaps (engine rewires) behind this
// pair: a rewire blocks new acquisitions and waits out the held ones, so
// in-flight appends quiesce before baskets are drained and rewired.
type Target interface {
	Acquire() (Sink, func())
}

// SwitchTarget is the standard Target implementation: an RW-locked sink
// slot. Receptor deliveries hold the read side; Quiesce takes the write
// side, blocking until every in-flight delivery has released, and the
// returned resume function installs the next sink. The zero value is not
// usable; create with NewSwitchTarget.
type SwitchTarget struct {
	mu   sync.RWMutex
	sink Sink
}

// NewSwitchTarget returns a target initially delivering to sink.
func NewSwitchTarget(sink Sink) *SwitchTarget { return &SwitchTarget{sink: sink} }

// Acquire implements Target.
func (t *SwitchTarget) Acquire() (Sink, func()) {
	t.mu.RLock()
	return t.sink, t.mu.RUnlock
}

// Peek returns the current sink without guarding it (monitoring only).
func (t *SwitchTarget) Peek() Sink {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sink
}

// Quiesce blocks new deliveries and waits for in-flight ones to finish.
// The caller rewires its baskets, then calls the returned function with
// the sink of the new wiring (nil keeps the old one) to resume delivery.
func (t *SwitchTarget) Quiesce() func(next Sink) {
	t.mu.Lock()
	return func(next Sink) {
		if next != nil {
			t.sink = next
		}
		t.mu.Unlock()
	}
}

// Options tunes an ingest group.
type Options struct {
	// Shards is the number of listener shards (accept loops with their own
	// socket when the address allows it, on a shared socket otherwise).
	// 0 means 1.
	Shards int
	// BatchSize bounds how many decoded tuples accumulate before a
	// delivery into the sink while more input is already buffered on the
	// connection; the moment the sender pauses (nothing buffered), the
	// pending batch delivers regardless. 0 means 256.
	BatchSize int
	// HighWater is the sink occupancy (resident tuples) at which a
	// receptor stops reading its socket, letting TCP flow control push
	// back on the sender. 0 means 65536; negative disables backpressure.
	HighWater int
	// LowWater is the occupancy below which a stalled receptor resumes.
	// 0 means HighWater/2.
	LowWater int
	// WAL, when non-nil, logs every accepted batch before it is routed
	// into baskets. A log failure closes the connection (the sender sees
	// the break and retries) rather than delivering unlogged tuples.
	WAL BatchLog
	// IdleTimeout closes a connection whose client sends nothing for this
	// long, freeing the shard goroutine it would otherwise pin. 0 (the
	// default) disables the deadline.
	IdleTimeout time.Duration
}

func (o Options) shards() int {
	if o.Shards < 1 {
		return 1
	}
	return o.Shards
}

func (o Options) batchSize() int {
	if o.BatchSize < 1 {
		return 256
	}
	return o.BatchSize
}

func (o Options) highWater() int {
	switch {
	case o.HighWater < 0:
		return 0 // disabled
	case o.HighWater == 0:
		return 65536
	}
	return o.HighWater
}

func (o Options) lowWater() int {
	hw := o.highWater()
	if hw == 0 {
		return 0
	}
	if o.LowWater > 0 && o.LowWater < hw {
		return o.LowWater
	}
	return hw / 2
}

// Stats is one receptor shard's activity snapshot.
type Stats struct {
	Addr      string        // listen address of the shard
	Conns     int64         // connections accepted over the shard's lifetime
	Active    int64         // connections currently open
	TextConns int64         // connections that sniffed as textual
	Frames    int64         // binary frames decoded
	Tuples    int64         // tuples delivered into the sink
	Invalid   int64         // malformed lines / rejected frames
	TimedOut  int64         // connections closed by the idle read deadline
	WALErrors int64         // batches rejected because the WAL append failed
	Stalls    int64         // backpressure stalls
	StallTime time.Duration // total time spent stalled
	RouteTime time.Duration // total time spent routing batches into the sink
}

// Group is the sharded ingest periphery of one stream: Shards listener
// shards accepting connections whose tuple streams — binary frames or
// textual lines, sniffed per connection — are decoded independently and
// delivered through the group's Target. It replaces the single-socket,
// text-only stream.TCPReceptor for engine streams.
type Group struct {
	stream string
	names  []string
	types  []vector.Type
	target Target
	opts   Options

	shards []*shard

	mu      sync.Mutex
	conns   map[net.Conn]bool
	stopped bool
	wg      sync.WaitGroup
}

// shard is one accept loop with its own stats.
type shard struct {
	ln     net.Listener
	owns   bool // whether this shard closes ln (false for loops sharing a socket)
	addr   string
	conns  atomic.Int64
	active atomic.Int64
	text   atomic.Int64
	frames atomic.Int64
	tuples atomic.Int64
	inval  atomic.Int64
	tmout  atomic.Int64
	walErr atomic.Int64
	stalls atomic.Int64
	stallT atomic.Int64 // nanoseconds
	routeT atomic.Int64 // nanoseconds spent in sink.Append (route-at-ingest)
}

// Listen starts an ingest group for a stream with the given user schema
// on addr. With Shards > 1 and a wildcard port (":0"), every shard binds
// its own socket; with a fixed port the shards share the first socket as
// parallel accept loops. The group is accepting when Listen returns.
func Listen(streamName, addr string, names []string, types []vector.Type, target Target, opts Options) (*Group, error) {
	g := &Group{
		stream: streamName,
		names:  append([]string(nil), names...),
		types:  append([]vector.Type(nil), types...),
		target: target,
		opts:   opts,
		conns:  map[net.Conn]bool{},
	}
	first, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	g.shards = append(g.shards, &shard{ln: first, owns: true, addr: first.Addr().String()})
	for i := 1; i < opts.shards(); i++ {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			// Fixed port: fan out as parallel accept loops on the first
			// socket instead (the SO_REUSEPORT-style fallback).
			g.shards = append(g.shards, &shard{ln: first, owns: false, addr: first.Addr().String()})
			continue
		}
		g.shards = append(g.shards, &shard{ln: ln, owns: true, addr: ln.Addr().String()})
	}
	for _, s := range g.shards {
		g.wg.Add(1)
		go g.acceptLoop(s)
	}
	return g, nil
}

// Addrs returns the bound listen address of every shard, in shard order
// (repeated when shards share a socket).
func (g *Group) Addrs() []string {
	out := make([]string, len(g.shards))
	for i, s := range g.shards {
		out[i] = s.addr
	}
	return out
}

// Stats snapshots every shard's counters, in shard order.
func (g *Group) Stats() []Stats {
	out := make([]Stats, len(g.shards))
	for i, s := range g.shards {
		out[i] = Stats{
			Addr:      s.addr,
			Conns:     s.conns.Load(),
			Active:    s.active.Load(),
			TextConns: s.text.Load(),
			Frames:    s.frames.Load(),
			Tuples:    s.tuples.Load(),
			Invalid:   s.inval.Load(),
			TimedOut:  s.tmout.Load(),
			WALErrors: s.walErr.Load(),
			Stalls:    s.stalls.Load(),
			StallTime: time.Duration(s.stallT.Load()),
			RouteTime: time.Duration(s.routeT.Load()),
		}
	}
	return out
}

// Close stops accepting, force-closes open connections (in-flight batches
// already decoded are still delivered) and waits for every decode loop to
// finish. Idempotent.
func (g *Group) Close() {
	g.mu.Lock()
	already := g.stopped
	g.stopped = true
	open := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		open = append(open, c)
	}
	g.mu.Unlock()
	if !already {
		for _, s := range g.shards {
			if s.owns {
				s.ln.Close()
			}
		}
		for _, c := range open {
			c.Close()
		}
	}
	g.wg.Wait()
}

func (g *Group) acceptLoop(s *shard) {
	defer g.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		g.mu.Lock()
		if g.stopped {
			g.mu.Unlock()
			conn.Close()
			return
		}
		g.conns[conn] = true
		g.wg.Add(1)
		g.mu.Unlock()
		s.conns.Add(1)
		s.active.Add(1)
		go func() {
			defer g.wg.Done()
			defer s.active.Add(-1)
			defer func() {
				g.mu.Lock()
				delete(g.conns, conn)
				g.mu.Unlock()
				conn.Close()
			}()
			g.serveConn(s, conn)
		}()
	}
}

// deadlineReader arms a fresh read deadline before every read, so a dead
// client that stops sending unblocks the decode loop instead of pinning a
// shard goroutine forever. hit records that the last read error was the
// idle deadline expiring (read by the same serve goroutine only).
type deadlineReader struct {
	conn net.Conn
	d    time.Duration
	hit  bool
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	if r.d > 0 {
		r.conn.SetReadDeadline(time.Now().Add(r.d))
	}
	n, err := r.conn.Read(p)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			r.hit = true
		}
	}
	return n, err
}

// serveConn sniffs the protocol of one accepted connection and decodes it
// to completion.
func (g *Group) serveConn(s *shard, conn net.Conn) {
	dr := &deadlineReader{conn: conn, d: g.opts.IdleTimeout}
	br := bufio.NewReaderSize(dr, 64*1024)
	batch := bat.NewEmptyRelation(g.names, g.types)
	if SniffBinary(br) {
		g.serveBinary(s, dr, br, batch)
		return
	}
	if dr.hit {
		s.tmout.Add(1)
		return
	}
	s.text.Add(1)
	g.serveText(s, dr, br, batch)
}

// Delivery rule, both protocols: a batch ships when it reaches
// BatchSize — the accumulation bound while input keeps streaming — or
// the moment the connection has no more bytes already buffered, i.e.
// the sender paused. A frame boundary after a sender's Flush therefore
// delivers immediately instead of withholding decoded tuples until
// BatchSize accumulates; BatchSize only coalesces while more input is
// in flight.

func (g *Group) serveBinary(s *shard, dr *deadlineReader, br *bufio.Reader, batch *bat.Relation) {
	fr := NewFrameReader(br, g.types)
	for {
		_, err := fr.DecodeFrameInto(batch)
		if err == io.EOF {
			_ = g.deliver(s, batch)
			return
		}
		if err != nil {
			// A protocol error poisons the connection: frame boundaries are
			// lost, so deliver what decoded cleanly and drop the rest. An
			// idle-deadline expiry is the client's silence, not corruption.
			if dr.hit {
				s.tmout.Add(1)
			} else {
				s.inval.Add(1)
			}
			_ = g.deliver(s, batch)
			return
		}
		s.frames.Add(1)
		if batch.Len() >= g.opts.batchSize() || br.Buffered() == 0 {
			if g.deliver(s, batch) != nil {
				return
			}
		}
	}
}

func (g *Group) serveText(s *shard, dr *deadlineReader, br *bufio.Reader, batch *bat.Relation) {
	// A hand-rolled line loop instead of bufio.Scanner: the scanner
	// buffers internally, which would hide whether the sender paused —
	// the delivery signal above.
	var long []byte // spill buffer for lines longer than br's buffer
	for {
		chunk, err := br.ReadSlice('\n')
		switch err {
		case nil:
		case bufio.ErrBufferFull:
			// Accumulate the oversized line and keep reading it.
			long = append(long[:0], chunk...)
			for err == bufio.ErrBufferFull {
				chunk, err = br.ReadSlice('\n')
				long = append(long, chunk...)
			}
			if err != nil && err != io.EOF {
				if dr.hit {
					s.tmout.Add(1)
				}
				_ = g.deliver(s, batch)
				return
			}
			chunk = long
		case io.EOF:
			if len(chunk) == 0 {
				_ = g.deliver(s, batch)
				return
			}
		default:
			if dr.hit {
				s.tmout.Add(1)
			}
			_ = g.deliver(s, batch)
			return
		}
		line := strings.TrimRight(string(chunk), "\r\n")
		if line != "" {
			if derr := stream.DecodeRowInto(line, g.types, batch); derr != nil {
				s.inval.Add(1)
			}
		}
		if err == io.EOF {
			_ = g.deliver(s, batch)
			return
		}
		if batch.Len() >= g.opts.batchSize() || (batch.Len() > 0 && br.Buffered() == 0) {
			if g.deliver(s, batch) != nil {
				return
			}
		}
	}
}

// stallPoll is the backpressure polling interval. The receptor is not on
// the firing hot path — while stalled it is deliberately idle — so a
// fixed small sleep is the whole mechanism; TCP flow control upstream
// does the real pushing back.
const stallPoll = 200 * time.Microsecond

// deliver appends the batch through the group's target, honouring the
// backpressure watermarks: at or above high water the receptor stops
// reading its socket and polls until the factories drain the sink below
// low water. The batch is cleared after a successful append.
func (g *Group) deliver(s *shard, batch *bat.Relation) error {
	if batch.Len() == 0 {
		return nil
	}
	hw, lw := g.opts.highWater(), g.opts.lowWater()
	for {
		sink, release := g.target.Acquire()
		if hw > 0 && sink.Occupancy() >= hw {
			release()
			if g.stallUntilDrained(s, lw) {
				continue
			}
			// Group closing: deliver anyway so decoded tuples are not
			// lost; the kernel keeps draining after the periphery stops.
			sink, release = g.target.Acquire()
		}
		err := g.logAndAppend(s, sink, batch)
		release()
		return err
	}
}

// logAndAppend logs the batch to the write-ahead log, then appends it to
// sink and clears it. The caller holds the target, so a quiesced target
// has every logged frame in a basket: no frame is logged but not yet
// routed.
func (g *Group) logAndAppend(s *shard, sink Sink, batch *bat.Relation) error {
	// Write-ahead tee: the batch is logged before anything is routed, so
	// recovery never has to invent tuples the kernel saw but the log
	// missed. A log failure drops the batch and closes the connection —
	// the sender's retry path owns redelivery.
	if g.opts.WAL != nil {
		if _, err := g.opts.WAL.LogBatch(batch); err != nil {
			s.walErr.Add(1)
			batch.Clear()
			return err
		}
	}
	// Crash-between-log-and-route faultpoint: the frame is durable but the
	// basket never sees it; recovery must replay it.
	if act, ferr := faultpoint.Check(FaultDeliver); act != faultpoint.None {
		if act != faultpoint.Err {
			faultpoint.CrashNow()
			ferr = fmt.Errorf("%w: crash at %s", faultpoint.ErrInjected, FaultDeliver)
		}
		batch.Clear()
		return ferr
	}
	// Route timing: one clock pair per frame (never per tuple) around
	// the sink append — the route stage of the latency breakdown.
	start := time.Now()
	n, err := sink.Append(batch)
	s.routeT.Add(int64(time.Since(start)))
	s.tuples.Add(int64(n))
	batch.Clear()
	return err
}

// stallUntilDrained blocks until sink occupancy falls below lw, counting
// the stall. It returns false when the group is closing.
func (g *Group) stallUntilDrained(s *shard, lw int) bool {
	s.stalls.Add(1)
	start := time.Now()
	defer func() { s.stallT.Add(int64(time.Since(start))) }()
	for {
		time.Sleep(stallPoll)
		g.mu.Lock()
		stopped := g.stopped
		g.mu.Unlock()
		if stopped {
			return false
		}
		sink, release := g.target.Acquire()
		occ := sink.Occupancy()
		release()
		if occ < lw {
			return true
		}
	}
}
