package eval

import "testing"

func TestConvergenceTimeEmpty(t *testing.T) {
	if tm, ok := ConvergenceTime(nil); ok || tm != 0 {
		t.Errorf("ConvergenceTime(nil) = (%v,%v), want (0,false)", tm, ok)
	}
}
