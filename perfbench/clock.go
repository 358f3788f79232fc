package main

import "time"

// stopwatch measures host wall time. It is the benchmark's only clock:
// the simulation under test never reads it.
type stopwatch struct{ start time.Time }

func startWatch() stopwatch {
	//simlint:allow walltime — host wall time is what the benchmark measures; it never feeds the simulation
	return stopwatch{start: time.Now()}
}

func (s stopwatch) seconds() float64 {
	//simlint:allow walltime — host wall time is what the benchmark measures; it never feeds the simulation
	return time.Since(s.start).Seconds()
}
