// Package suppressed shows a reasoned kernelgo suppression of a
// host-side fan-out over independent kernels. simlint-fixture: clean
package suppressed

func fanOut(kernels int) {
	for i := 0; i < kernels; i++ {
		//simlint:allow kernelgo — fixture: host-side fan-out; each goroutine owns one sealed kernel and they share nothing
		go func() {}()
	}
}
