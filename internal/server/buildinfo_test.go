package server

import (
	"reflect"
	"testing"
)

// TestBuildInfoReadOnce: /healthz reports build info from a map read
// once per process, not re-derived from the binary on every hit.
func TestBuildInfoReadOnce(t *testing.T) {
	first, second := buildInfo(), buildInfo()
	if reflect.ValueOf(first).UnsafePointer() != reflect.ValueOf(second).UnsafePointer() {
		t.Fatal("buildInfo rebuilt its map on the second call")
	}
	for _, k := range []string{"version", "revision", "dirty"} {
		if _, ok := first[k]; !ok {
			t.Errorf("build info lacks %q: %v", k, first)
		}
	}
}
