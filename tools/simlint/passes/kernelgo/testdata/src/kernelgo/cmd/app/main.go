// Package main is a host-side fixture: cmd/ binaries run real
// goroutines (worker fan-out, signal handling) and are exempt.
// simlint-fixture: clean
package main

func main() {
	done := make(chan struct{})
	go func() {
		close(done)
	}()
	<-done
}
