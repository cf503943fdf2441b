package stream

import (
	"bufio"
	"io"
	"sync/atomic"

	"datacell/internal/basket"
	"datacell/internal/bat"
)

// Receptor is a separate thread that continuously picks up incoming events
// from a communication channel, validates their structure and forwards
// their content to its basket. Structurally invalid events are counted and
// dropped — the same silent-filter behaviour as basket integrity
// constraints.
type Receptor struct {
	b *basket.Basket
	// BatchSize controls how many validated tuples are collected before a
	// single append into the basket (amortising lock traffic); 1 appends
	// tuple-at-a-time. Flush happens on channel end regardless.
	BatchSize int

	received atomic.Int64
	invalid  atomic.Int64
}

// NewReceptor returns a receptor feeding basket b with batch size 64.
func NewReceptor(b *basket.Basket) *Receptor {
	return &Receptor{b: b, BatchSize: 64}
}

// Received returns the number of structurally valid tuples forwarded.
func (r *Receptor) Received() int64 { return r.received.Load() }

// Invalid returns the number of malformed events dropped.
func (r *Receptor) Invalid() int64 { return r.invalid.Load() }

// Listen consumes the textual tuple stream from rd until EOF (or basket
// close) on the calling goroutine.
func (r *Receptor) Listen(rd io.Reader) error {
	names, types := r.b.UserSchema()
	// One decode batch for the whole connection: the basket copies the
	// tuples on Append, so the batch is Clear()ed and refilled instead of
	// reallocated per flush.
	batch := bat.NewEmptyRelation(names, types)
	// flush forwards the batch and settles the received accounting: a
	// decoded tuple counts only once it reaches the basket, so a failed
	// flush (basket closed mid-stream) credits exactly the tuples the
	// basket accepted before the failure instead of the whole batch.
	flush := func() error {
		if batch.Len() == 0 {
			return nil
		}
		n, err := r.b.Append(batch)
		if err != nil {
			r.received.Add(int64(n))
		} else {
			// Constraint-dropped tuples were still forwarded; the basket's
			// silent-filter semantics hide them downstream, not here.
			r.received.Add(int64(batch.Len()))
		}
		batch.Clear()
		return err
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if err := DecodeRowInto(line, types, batch); err != nil {
			r.invalid.Add(1)
			continue
		}
		if batch.Len() >= r.BatchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return sc.Err()
}
