// Package app is a host-side fixture: tools and commands run on the
// real machine and may keep process-wide state. simlint-fixture: clean
package app

import "sync"

var flags sync.Map

var seen = map[string]bool{}

func mark(k string) {
	seen[k] = true
	flags.Store(k, true)
}
