// Package svc is a simulation-domain fixture for globalcache: a
// package-level sync.Map and every way of writing a package-level map
// at runtime are hits; state owned by a value is the sanctioned miss.
package svc

import "sync"

// memo is the pointer-keyed result cache shape.
var memo sync.Map // want `package-level sync\.Map memo is a process-global cache`

var shared = &sync.Map{} // want `package-level sync\.Map shared is a process-global cache`

var (
	results = map[string][]byte{}   // want `package-level map results is written at runtime \(in put\)`
	counts  = map[string]int{}      // want `package-level map counts is written at runtime \(in bump\)`
	seen    = map[int]bool{1: true} // want `package-level map seen is written at runtime \(in forget\)`
	scratch = make(map[int]int)     // want `package-level map scratch is written at runtime \(in reset\)`
)

func put(k string, v []byte) { results[k] = v }

func bump(k string) { counts[k]++ }

func forget(k int) { delete(seen, k) }

func reset() { clear(scratch) }

// cache is the sanctioned shape: the state lives and dies with its
// owner.
type cache struct {
	m map[string][]byte
}

func (c *cache) put(k string, v []byte) { c.m[k] = v }

func load(k string) ([]byte, bool) {
	v, ok := memo.Load(k)
	if !ok {
		return nil, false
	}
	return v.([]byte), true
}
