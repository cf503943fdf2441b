// Package lib is a fixture for the dead-symbol scan.
package lib

// Live is called from main.
func Live() { helper() }

// Dead is called only by itself and by tests.
func Dead() { Dead() }

func helper() {}
