package obs

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Progress tracks completion of a fixed-size campaign and renders a
// throttled cells-per-second / ETA line. Done is supplied as a
// function so the reporter reads live registry counters instead of
// duplicating state; everything else is derived.
type Progress struct {
	// Interval is the minimum gap between MaybeEmit lines; 0 means
	// every call emits (useful in tests).
	Interval time.Duration

	done func() uint64
	now  func() time.Time // clock seam; tests inject misbehaving clocks

	mu    sync.Mutex
	total uint64
	start time.Time
	last  time.Time
	// wmu serializes line writes: sweep workers emit concurrently
	// into one shared writer.
	wmu sync.Mutex
}

// NewProgress returns a reporter whose completion count comes from
// done. Call SetTotal before the campaign starts; the clock starts
// there.
func NewProgress(done func() uint64) *Progress {
	return &Progress{Interval: time.Second, done: done, now: time.Now}
}

// SetTotal fixes the campaign size and (re)starts the rate clock.
func (p *Progress) SetTotal(n uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total = n
	p.start = p.now()
	p.last = time.Time{}
}

// Snapshot is one point-in-time progress reading.
type Snapshot struct {
	// Done and Total count campaign cells.
	Done, Total uint64
	// Percent is 100*Done/Total (0 when Total is 0).
	Percent float64
	// Rate is cells per second since SetTotal.
	Rate float64
	// Elapsed is the time since SetTotal.
	Elapsed time.Duration
	// ETA estimates the remaining time at the current rate; 0 when
	// the rate is still 0 or the campaign is finished.
	ETA time.Duration
}

// Snapshot returns the current reading. Every derived field is
// guarded against the degenerate inputs long campaigns actually hit —
// zero-cell sweeps (total 0), counters racing past the total, and
// non-monotonic clock readings — so /progress never serves ±Inf or
// NaN (which would also make its JSON encoding fail outright).
func (p *Progress) Snapshot() Snapshot {
	p.mu.Lock()
	total, start := p.total, p.start
	p.mu.Unlock()
	s := Snapshot{Done: p.done(), Total: total}
	if start.IsZero() {
		return s
	}
	s.Elapsed = p.now().Sub(start)
	if s.Elapsed < 0 {
		// A clock that stepped backwards (or a seeded fake) must not
		// produce negative rates or ETAs.
		s.Elapsed = 0
	}
	if total > 0 {
		s.Percent = 100 * float64(s.Done) / float64(total)
		if s.Percent > 100 {
			// Done can transiently outrun Total when skipped cells are
			// counted before SetTotal lands; clamp instead of lying.
			s.Percent = 100
		}
	}
	if secs := s.Elapsed.Seconds(); secs > 0 {
		s.Rate = float64(s.Done) / secs
	}
	if s.Rate > 0 && s.Done < total {
		eta := float64(total-s.Done) / s.Rate * float64(time.Second)
		if eta > float64(math.MaxInt64) {
			// A near-zero rate over a huge grid overflows Duration into
			// garbage (negative); saturate instead.
			s.ETA = time.Duration(math.MaxInt64)
		} else {
			s.ETA = time.Duration(eta)
		}
	}
	return s
}

// Line renders the snapshot as one human-readable progress line.
func (s Snapshot) Line() string {
	eta := "--"
	if s.ETA > 0 {
		eta = s.ETA.Round(100 * time.Millisecond).String()
	}
	return fmt.Sprintf("progress: %d/%d cells (%.1f%%) · %.0f cells/s · ETA %s",
		s.Done, s.Total, s.Percent, s.Rate, eta)
}

// Line renders the current progress line.
func (p *Progress) Line() string { return p.Snapshot().Line() }

// MaybeEmit writes the progress line to w if at least Interval has
// passed since the previous emission (or none has happened yet). It
// reports whether a line was written.
func (p *Progress) MaybeEmit(w io.Writer) bool {
	p.mu.Lock()
	now := p.now()
	if !p.last.IsZero() && now.Sub(p.last) < p.Interval {
		p.mu.Unlock()
		return false
	}
	p.last = now
	p.mu.Unlock()
	p.writeLine(w)
	return true
}

// Emit writes the progress line unconditionally — the final line of a
// campaign should never be throttled away.
func (p *Progress) Emit(w io.Writer) {
	p.mu.Lock()
	p.last = p.now()
	p.mu.Unlock()
	p.writeLine(w)
}

func (p *Progress) writeLine(w io.Writer) {
	line := p.Line()
	p.wmu.Lock()
	defer p.wmu.Unlock()
	fmt.Fprintln(w, line)
}
