package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const tracker = `
begin context tracker
    activation: magnetic_sensor_reading()
    location : avg(position) confidence=2, freshness=1s
    begin object reporter
        invocation: TIMER(2s)
        report_function() {
            send(base, self:label, location);
        }
    end
end context
`

func writeTracker(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.et")
	if err := os.WriteFile(path, []byte(tracker), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunScenario(t *testing.T) {
	path := writeTracker(t)
	err := run([]string{path}, "8x2", 2.5, 1.6, 0.2, "vehicle", 15*time.Second, 1, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil, "8x2", 2.5, 1.6, 0.2, "vehicle", time.Second, 1, time.Second); err == nil {
		t.Error("expected usage error")
	}
	path := filepath.Join(t.TempDir(), "prog.et")
	if err := os.WriteFile(path, []byte("begin context x activation: f() end context"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}, "bogus", 2.5, 1.6, 0.2, "vehicle", time.Second, 1, time.Second); err == nil {
		t.Error("expected grid parse error")
	}
	if err := run([]string{path}, "8x2", 2.5, 1.6, 0.2, "vehicle", time.Second, 1, time.Second); err == nil {
		t.Error("expected compile error for unknown sensing function")
	}

	// A bad flag value is an error that names the flag; zero keeps its
	// meaning (a parked target, no run time, the default heartbeat).
	good := writeTracker(t)
	if err := run([]string{good}, "8x2", 2.5, 1.6, 0, "vehicle", 0, 1, 0); err != nil {
		t.Errorf("zero -speed, -duration and -heartbeat: %v", err)
	}
	for _, tc := range []struct {
		flag         string
		sense, speed float64
		duration, hb time.Duration
	}{
		{"-speed", 1.6, math.NaN(), time.Second, time.Second},
		{"-speed", 1.6, math.Inf(1), time.Second, time.Second},
		{"-speed", 1.6, -0.1, time.Second, time.Second},
		{"-sense", -1, 0.2, time.Second, time.Second},
		{"-sense", 0, 0.2, time.Second, time.Second},
		{"-sense", math.NaN(), 0.2, time.Second, time.Second},
		{"-duration", 1.6, 0.2, -5 * time.Second, time.Second},
		{"-heartbeat", 1.6, 0.2, time.Second, -time.Second},
	} {
		err := run([]string{good}, "8x2", 2.5, tc.sense, tc.speed, "vehicle", tc.duration, 1, tc.hb)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s (sense %v speed %v duration %v heartbeat %v): err = %v, want one naming %s",
				tc.flag, tc.sense, tc.speed, tc.duration, tc.hb, err, tc.flag)
		}
	}
}
