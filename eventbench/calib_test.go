package main

import (
	"math"
	"testing"
	"time"
)

func TestSpeedScalesByNearbySamples(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := &speed{}
	// The host runs at calibration speed for 20 samples, then at half speed.
	for i := 0; i < 40; i++ {
		ref := refNominal
		if i >= 20 {
			ref = 2 * refNominal
		}
		s.refs = append(s.refs, ref)
		s.at = append(s.at, t0.Add(time.Duration(i)*time.Second))
	}
	got := s.scale([]timing{
		{10 * time.Millisecond, 5},  // window all fast, clamped at 0
		{10 * time.Millisecond, 35}, // window all slow
		{10 * time.Millisecond, 39}, // window clamped at the end
	})
	for i, want := range []float64{10, 5, 5} {
		if math.Abs(got[i]-want) > 1e-9 {
			t.Errorf("timing %d scaled to %g ms, want %g", i, got[i], want)
		}
	}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{
		{-time.Second, 0},
		{2400 * time.Millisecond, 2},
		{2600 * time.Millisecond, 3},
		{time.Hour, 39},
	} {
		if got := s.nearest(0, t0.Add(c.at)); got.ref != c.want {
			t.Errorf("nearest sample to %v is %d, want %d", c.at, got.ref, c.want)
		}
	}
	if f := (&speed{}).factor(0, 10); f != 1 {
		t.Errorf("factor without samples is %g, want 1", f)
	}
}
