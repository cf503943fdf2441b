package lib

import "testing"

// A test reference does not make Dead live.
func TestDead(t *testing.T) { Dead() }
