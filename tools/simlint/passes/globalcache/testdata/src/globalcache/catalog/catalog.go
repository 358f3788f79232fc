// Package catalog is a read-only table, the shape of the instance and
// node-type catalogs: initialised once by a composite literal and only
// ever read. simlint-fixture: clean
package catalog

type nodeType struct {
	memGB float64
	usdHr float64
}

var Catalog = map[string]nodeType{
	"small": {memGB: 1.5, usdHr: 0.02},
	"large": {memGB: 13, usdHr: 0.16},
}

func Lookup(name string) (nodeType, bool) {
	nt, ok := Catalog[name]
	return nt, ok
}

// Names copies into a local map; writing it is not a global write.
func Names() map[string]bool {
	out := make(map[string]bool, len(Catalog))
	for k := range Catalog {
		out[k] = true
	}
	return out
}
