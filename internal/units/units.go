// Package units defines dimension-carrying numeric types for the
// quantities the simulator mixes constantly — nanoseconds, milliseconds,
// seconds, event rates, byte counts, and bandwidths — so that a ns/s slip
// is a compile error (mismatched defined types) instead of a silently
// skewed FMAR figure.
//
// Every type is a defined type over float64, so the migration is
// representation-preserving: arithmetic on one unit behaves bit-for-bit
// like the float64 code it replaced, untyped constants still assign
// directly (var d units.NS = 130 compiles), and encoding/json and fmt
// render the values exactly as before.
//
// # Conversion discipline
//
// Crossing units goes through the explicit helpers below (Sec.NS,
// MS.Seconds, Bytes.Over, ...), never through a direct type conversion
// like NS(someSec): that reinterprets the number at the wrong scale.
//
// Scaling a unit by a dimensionless factor uses Mul (cost per page ×
// pages × CostScale); the helpers preserve the evaluation order of the
// float64 expressions they replaced, which is what keeps results/
// tables.json byte-identical across the migration.
//
// Dropping to an untyped float64 at an external boundary (histograms,
// JSON rows, math.*) is an ordinary float64(x) conversion and is always
// allowed.
package units

import "chrono/internal/simclock"

type (
	// NS is a span in nanoseconds (kernel costs, device latencies).
	NS float64
	// MS is a span in milliseconds (CIT observations and thresholds).
	MS float64
	// Sec is a span in seconds (scan intervals, sampling periods).
	Sec float64
	// Hz is an event rate in events per second.
	Hz float64
	// Bytes is a byte count.
	Bytes float64
	// BytesPerSec is a bandwidth in bytes per second.
	BytesPerSec float64
	// GB is a capacity in gigabytes (tier sizes, working sets).
	GB float64
)

// Mul scales the span by a dimensionless factor.
func (n NS) Mul(f float64) NS { return NS(float64(n) * f) }

// Div divides the span by a dimensionless factor.
func (n NS) Div(f float64) NS { return NS(float64(n) / f) }

// MS converts nanoseconds to milliseconds.
func (n NS) MS() MS { return MS(float64(n) / 1e6) }

// Seconds converts nanoseconds to seconds.
func (n NS) Seconds() Sec { return Sec(float64(n) / 1e9) }

// Mul scales the span by a dimensionless factor.
func (m MS) Mul(f float64) MS { return MS(float64(m) * f) }

// NS converts milliseconds to nanoseconds.
func (m MS) NS() NS { return NS(float64(m) * 1e6) }

// Seconds converts milliseconds to seconds.
func (m MS) Seconds() Sec { return Sec(float64(m) / 1e3) }

// Mul scales the span by a dimensionless factor.
func (s Sec) Mul(f float64) Sec { return Sec(float64(s) * f) }

// Div divides the span by a dimensionless factor.
func (s Sec) Div(f float64) Sec { return Sec(float64(s) / f) }

// NS converts seconds to nanoseconds.
func (s Sec) NS() NS { return NS(float64(s) * 1e9) }

// MS converts seconds to milliseconds.
func (s Sec) MS() MS { return MS(float64(s) * 1e3) }

// Duration converts seconds to a virtual-clock duration, truncating to
// whole nanoseconds exactly as simclock.FromSeconds does.
func (s Sec) Duration() simclock.Duration { return simclock.FromSeconds(float64(s)) }

// SecondsOf converts a virtual-clock duration to typed seconds.
func SecondsOf(d simclock.Duration) Sec { return Sec(d.Seconds()) }

// NSOf converts a virtual-clock duration to typed nanoseconds (lossless:
// simclock durations are integer nanoseconds).
func NSOf(d simclock.Duration) NS { return NS(d) }

// Mul scales the rate by a dimensionless factor.
func (h Hz) Mul(f float64) Hz { return Hz(float64(h) * f) }

// Count returns the expected number of events over a span: rate × span.
func (h Hz) Count(s Sec) float64 { return float64(h) * float64(s) }

// Period returns the mean inter-event span of the rate.
func (h Hz) Period() Sec { return Sec(1 / float64(h)) }

// Mul scales the byte count by a dimensionless factor.
func (b Bytes) Mul(f float64) Bytes { return Bytes(float64(b) * f) }

// Over returns the time a transfer of b takes at bandwidth bw.
func (b Bytes) Over(bw BytesPerSec) Sec { return Sec(float64(b) / float64(bw)) }

// Per returns the bandwidth of b transferred per span s.
func (b Bytes) Per(s Sec) BytesPerSec { return BytesPerSec(float64(b) / float64(s)) }

// Mul scales the bandwidth by a dimensionless factor.
func (bw BytesPerSec) Mul(f float64) BytesPerSec { return BytesPerSec(float64(bw) * f) }

// Times returns the bytes moved at bandwidth bw over span s.
func (bw BytesPerSec) Times(s Sec) Bytes { return Bytes(float64(bw) * float64(s)) }

// Mul scales the capacity by a dimensionless factor.
func (g GB) Mul(f float64) GB { return GB(float64(g) * f) }

// Div divides the capacity by a dimensionless factor.
func (g GB) Div(f float64) GB { return GB(float64(g) / f) }

// Pages converts the capacity to base pages at the given scale,
// truncating like the int64(gb * pagesPerGB) expression it replaces.
func (g GB) Pages(pagesPerGB int64) int64 { return int64(float64(g) * float64(pagesPerGB)) }
