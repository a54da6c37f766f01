package main

import (
	"flag"
	"testing"
)

// BenchmarkLayers runs every layer micro-benchmark under go test:
//
//	cd bench && go test -run '^$' -bench Layers -benchmem
func BenchmarkLayers(b *testing.B) {
	for _, m := range micros {
		b.Run(m.name, m.fn)
	}
}

// TestMicrosRun runs every micro-benchmark for enough iterations to wrap
// its key cycles, so a broken benchmark or a failed in-benchmark check
// shows in go test.
func TestMicrosRun(t *testing.T) {
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "2000x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)
	for _, m := range micros {
		if r := testing.Benchmark(m.fn); r.N == 0 {
			t.Errorf("%s failed", m.name)
		}
	}
}
