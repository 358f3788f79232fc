package globalcache_test

import (
	"testing"

	"fsdinference/tools/simlint/analysis/analysistest"
	"fsdinference/tools/simlint/passes/globalcache"
)

func TestGlobalcache(t *testing.T) {
	analysistest.Run(t, "testdata", globalcache.Analyzer,
		"globalcache/svc",
		"globalcache/catalog",
		"globalcache/cmd/app",
		"globalcache/suppressed",
	)
}
