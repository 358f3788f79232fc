// Package suppressed shows a reasoned globalcache suppression.
// simlint-fixture: clean
package suppressed

//simlint:allow globalcache — fixture: interning table of immutable names; entries never depend on a request
var interned = map[string]string{}

func intern(s string) string {
	if v, ok := interned[s]; ok {
		return v
	}
	interned[s] = s
	return s
}
