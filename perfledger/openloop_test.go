package main

import (
	"testing"
	"time"
)

// fakeClock advances only when told to: SleepUntil jumps forward to its
// target, and a send advances it by the time the send takes.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestSendOpenLoopLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	ms := time.Millisecond
	offsets := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	// Request 0's send stalls for 25 ms; the rest take 1 ms.
	took := []time.Duration{25 * ms, ms, ms, ms, ms}
	var sentAt []time.Duration
	late := sendOpenLoop(clk, start, offsets, start.Add(time.Hour), func(i int) {
		sentAt = append(sentAt, clk.now.Sub(start))
		clk.now = clk.now.Add(took[i])
	})
	if len(late) != len(offsets) {
		t.Fatalf("sent %d of %d", len(late), len(offsets))
	}
	// The stall makes requests 1 and 2 late (sent at 25 and 26 ms) but
	// the schedule is not shifted: request 3 goes out on time.
	wantLate := []float64{0, 15, 6, 0, 0}
	wantSent := []time.Duration{0, 25 * ms, 26 * ms, 30 * ms, 40 * ms}
	for i := range offsets {
		if late[i] != wantLate[i] || sentAt[i] != wantSent[i] {
			t.Errorf("request %d: sent at %v, %v ms late; want %v, %v ms", i, sentAt[i], late[i], wantSent[i], wantLate[i])
		}
	}
}

// A sender that falls behind stops at the end of the schedule instead
// of running on past it.
func TestSendOpenLoopStopsAtEnd(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	offsets := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	late := sendOpenLoop(clk, start, offsets, start.Add(4*time.Millisecond), func(int) {
		clk.now = clk.now.Add(3 * time.Millisecond)
	})
	if len(late) != 2 || late[1] != 2 {
		t.Errorf("lateness %v; want 2 sent, the second 2 ms late", late)
	}
}

func TestScheduleSteps(t *testing.T) {
	offsets, stepOf := schedule([]step{{rate: 100, dur: time.Second}, {rate: 400, dur: 500 * time.Millisecond}})
	if len(offsets) != 300 {
		t.Fatalf("%d requests, want 100 + 200", len(offsets))
	}
	if offsets[1] != 10*time.Millisecond || stepOf[99] != 0 {
		t.Errorf("first step: offsets[1] = %v, stepOf[99] = %d", offsets[1], stepOf[99])
	}
	if offsets[100] != time.Second || offsets[101] != time.Second+2500*time.Microsecond || stepOf[100] != 1 {
		t.Errorf("second step starts at %v, then %v (step %d)", offsets[100], offsets[101], stepOf[100])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] <= offsets[i-1] {
			t.Fatalf("offsets not increasing at %d", i)
		}
	}
}
