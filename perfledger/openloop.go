package main

import "time"

// clock is the time source of the open-loop sender; tests drive it by
// hand.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// step is one fixed offered rate held for a fixed time.
type step struct {
	rate float64 // requests per second
	dur  time.Duration
}

// schedule lays the steps end to end and returns each request's due
// offset from the start and the index of its step.
func schedule(steps []step) (offsets []time.Duration, stepOf []int) {
	var base time.Duration
	for k, s := range steps {
		n := int(s.rate*s.dur.Seconds() + 0.5)
		for j := 0; j < n; j++ {
			offsets = append(offsets, base+time.Duration(float64(j)/s.rate*float64(time.Second)))
			stepOf = append(stepOf, k)
		}
		base += s.dur
	}
	return offsets, stepOf
}

// sendOpenLoop calls send(i) for each request at its due time,
// start+offsets[i], whether or not earlier requests have finished: an
// open loop, as independent users make. A send that returns late makes
// the next request late; sendOpenLoop does not skip or compress the
// schedule to catch up, and returns how late (ms) each request was sent,
// so latency timed from the due time counts the stall. Requests still
// unsent at end are not sent at all, so the result can be shorter than
// offsets.
func sendOpenLoop(clk clock, start time.Time, offsets []time.Duration, end time.Time, send func(i int)) []float64 {
	var late []float64
	for i, off := range offsets {
		due := start.Add(off)
		clk.SleepUntil(due)
		now := clk.Now()
		if !now.Before(end) {
			break
		}
		late = append(late, float64(now.Sub(due).Nanoseconds())/1e6)
		send(i)
	}
	return late
}
