package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"spiffi/internal/sim"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"spiffi/internal/sim.(*Kernel).Run":                "sim",
		"spiffi/internal/sim.(*Mailbox[...]).Get":          "sim",
		"spiffi/internal/terminal.(*Terminal).issue.func1": "terminal",
		"spiffi/internal/bufferpool.(*Pool).Acquire":       "bufferpool",
		"spiffi/internal/cache.(*Cache).zipfRankVictim":    "cache",
		"spiffi/internal/overload.(*Controller).Observe":   "other",
		"spiffi.Run":                     "other",
		"runtime.chanrecv":               "runtime_sched",
		"runtime.gopark":                 "runtime_sched",
		"runtime.futex":                  "runtime_sched",
		"runtime.mallocgc":               "runtime_alloc",
		"runtime.gcDrain":                "runtime_alloc",
		"runtime.scanobject":             "runtime_alloc",
		"runtime.(*mspan).nextFreeIndex": "runtime_alloc",
		"runtime.mapaccess2":             "other",
		"sort.Search":                    "other",
		"main.benchEvent":                "other",
		"internal/runtime/atomic.(*Uint32).CompareAndSwap":    "other",
		"spiffi/internal/layout.(*Placement).LocateCopy":      "layout",
		"spiffi/internal/mpeg.Generate":                       "mpeg",
		"spiffi/internal/dsched.pickElevator.func1":           "dsched",
		"spiffi/internal/prefetch.(*Deadline).Get":            "prefetch",
		"spiffi/internal/server.(*Node).DeliverRequest.func1": "server",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUSharesOfRecordedProfile records a CPU profile of kernel event
// dispatch and decodes it: the shares must sum to one, and most samples
// must have the kernel on their stack. (Leaf frames are not checked: the
// race detector's instrumentation takes most of them in a -race build.)
func TestCPUSharesOfRecordedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler already in use:", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		k := sim.NewKernel()
		n := 0
		var fn func()
		fn = func() {
			if n++; n < 200_000 {
				k.After(sim.Duration(n%7), fn)
			}
		}
		// A second chain keeps the calendar heap two deep.
		k.After(1, fn)
		k.After(2, fn)
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		k.Close()
	}
	pprof.StopCPUProfile()

	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(shares) != len(cpuLayers) {
		t.Errorf("%d layers, want %d", len(shares), len(cpuLayers))
	}

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var inSim, total int
samples:
	for _, s := range p.samples {
		total++
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				if layerOf(p.functions[fn]) == "sim" {
					inSim++
					continue samples
				}
			}
		}
	}
	if total == 0 || float64(inSim) < 0.5*float64(total) {
		t.Errorf("%d of %d samples have the kernel on their stack, want most", inSim, total)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		{0x1f, 0x8b, 0x00}, // truncated gzip
		{0x0a, 0x05, 0x01}, // length past the end
		{0x0b},             // wire type 3 (groups) is not used by profiles
		{0x10, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // overlong varint
	} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("parseProfile(% x) succeeded", data)
		}
	}
}
