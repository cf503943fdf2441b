package datacell

import "time"

// Option configures an Engine at construction time (New). Every option
// delegates to the same internal setter its imperative counterpart uses —
// WithStrategy to SetStrategy, WithWAL to OpenWAL, and so on — which is
// also the code path the SQL pragmas (`set strategy = …`,
// `set parallelism = …`) take. An engine built declaratively is therefore
// indistinguishable from one configured with Set* calls or pragmas; the
// equivalence is differential-tested across strategy × parallelism × WAL.
type Option func(*Engine) error

// WithStrategy selects the multi-query sharing strategy (Figures 2a–2c):
// StrategySeparate, StrategyShared or StrategyPartial. Equivalent to
// SetStrategy.
func WithStrategy(s Strategy) Option {
	return func(e *Engine) error { return e.SetStrategy(s) }
}

// WithParallelism fixes the stream partition count for partitionable
// queries. Equivalent to SetParallelism.
func WithParallelism(p int) Option {
	return func(e *Engine) error { return e.SetParallelism(p) }
}

// WithClock replaces the engine clock (now(), arrival timestamps, emit
// timestamps) for simulated-time runs and deterministic tests. Equivalent
// to SetClock.
func WithClock(now func() time.Time) Option {
	return func(e *Engine) error { e.SetClock(now); return nil }
}

// WithWAL attaches a write-ahead log rooted at dir with default tuning.
// Equivalent to OpenWAL(WALOptions{Dir: dir}).
func WithWAL(dir string) Option {
	return WithWALOptions(WALOptions{Dir: dir})
}

// WithWALOptions attaches a write-ahead log with explicit tuning.
// Equivalent to OpenWAL.
func WithWALOptions(o WALOptions) Option {
	return func(e *Engine) error { return e.OpenWAL(o) }
}
