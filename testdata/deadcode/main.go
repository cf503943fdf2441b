// Package main is a fixture for the dead-symbol scan: it references
// lib.Live and nothing else.
package main

import "fixture/internal/lib"

func main() { lib.Live() }
