package datacell

import (
	"fmt"
	"io"

	"datacell/internal/ingest"
	"datacell/internal/vector"
)

// WireWriter encodes Rows as columnar batch frames of the engine's
// binary wire protocol — the sensor-side producer for feeding a stream
// over ListenIngest sockets from outside the engine process.
// Rows accumulate and ship as one frame per `batch` tuples; call Flush
// when done (and before any deliberate pause, so downstream sees the
// tuples).
type WireWriter struct {
	bw    *ingest.BatchWriter
	types []vector.Type
}

// NewWireWriter returns a writer producing frames of `batch` tuples for
// the given schema onto w (typically a TCP connection to an ingest
// listener). Column types use the SQL names of the create-basket
// statement: int, float, bool, string, timestamp.
func NewWireWriter(w io.Writer, cols, types []string, batch int) (*WireWriter, error) {
	if len(cols) != len(types) {
		return nil, fmt.Errorf("datacell: %d columns but %d types", len(cols), len(types))
	}
	ts := make([]vector.Type, len(types))
	for i, s := range types {
		t, err := vector.ParseType(s)
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}
	return &WireWriter{bw: ingest.NewBatchWriter(w, cols, ts, batch), types: ts}, nil
}

// WriteRow appends one tuple, converting values like Engine.Append
// does; a full batch is flushed as a frame.
func (ww *WireWriter) WriteRow(r Row) error {
	if len(r) != len(ww.types) {
		return fmt.Errorf("datacell: row has %d values, want %d", len(r), len(ww.types))
	}
	var buf [16]vector.Value
	vals := buf[:0]
	for i, x := range r {
		v, err := toValue(x, ww.types[i])
		if err != nil {
			return fmt.Errorf("datacell: column %d: %w", i, err)
		}
		vals = append(vals, v)
	}
	return ww.bw.WriteRow(vals...)
}

// Flush ships the pending tuples (if any) as one frame.
func (ww *WireWriter) Flush() error { return ww.bw.Flush() }
