package sim

import (
	"fmt"
	"time"

	"jitgc/internal/trace"
)

// Device is what the event loop steps: one Simulator, or an array of them
// sharing one clock. It holds only the calls Drive and Replay make.
type Device interface {
	// Begin prepares the device before its first event.
	Begin() error
	// StepRequest serves r at its absolute time r.Time and returns the
	// completion time the host observes.
	StepRequest(r trace.Request) (time.Duration, error)
	// Tick runs one whole write-back boundary at t.
	Tick(t time.Duration) error
	// Draining reports whether ticks must keep firing once the front end
	// has no events left.
	Draining() bool
}

// Drive is the event loop every run goes through. A front end supplies its
// events: next returns the time of its next one (ok false when none is
// left) and fire runs that event at t. Drive interleaves them with the
// write-back ticks every period on one clock, and owns the two rules all
// runs share:
//
//   - ties: a front-end event at a tick instant fires before the tick;
//   - drain: once the front end is exhausted, ticks keep firing while
//     dev.Draining() holds.
func Drive(dev Device, period time.Duration, next func() (time.Duration, bool), fire func(t time.Duration) error) error {
	if err := dev.Begin(); err != nil {
		return err
	}
	tick := period
	for {
		t, ok := next()
		switch {
		case ok && t <= tick:
			if err := fire(t); err != nil {
				return err
			}
		case ok || dev.Draining():
			if err := dev.Tick(tick); err != nil {
				return err
			}
			tick += period
		default:
			return nil
		}
	}
}

// Replay is the trace-replay front end of Drive. Open loop, each request's
// Time is its absolute arrival time and the trace must be sorted. Closed
// loop, Time is a think time after the completion of the request before,
// so device stalls push all later work back.
func Replay(dev Device, period time.Duration, reqs []trace.Request, closed bool) error {
	if closed {
		for i, r := range reqs {
			if err := r.Validate(); err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
		}
	} else if err := trace.ValidateAll(reqs); err != nil {
		return err
	}
	i := 0
	var last time.Duration
	next := func() (time.Duration, bool) {
		switch {
		case i == len(reqs):
			return 0, false
		case closed:
			return last + reqs[i].Time, true
		}
		return reqs[i].Time, true
	}
	fire := func(t time.Duration) error {
		r := reqs[i]
		r.Time = t
		done, err := dev.StepRequest(r)
		if err != nil {
			return err
		}
		last = done
		i++
		return nil
	}
	return Drive(dev, period, next, fire)
}
