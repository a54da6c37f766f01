package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzip-compressed
// protocol buffers, the profile.proto schema) with the standard library
// only, and attributes each sample's leaf frame to a simulator layer.

// cpuLayers lists every layer a CPU sample can be charged to, in report
// order. The first group are the simulator's packages, matched as
// spiffi/internal/<name>; the runtime is split into goroutine handoff
// (channels and the scheduler) and allocation plus garbage collection;
// "other" takes the rest of the runtime, the standard library and the
// benchmark's own code.
var cpuLayers = []string{
	"sim", "terminal", "network", "server", "cpu", "bufferpool", "dsched",
	"prefetch", "disk", "cache", "core", "trace", "mpeg", "layout", "rng",
	"stats", "runtime_sched", "runtime_alloc", "other",
}

// runtimeSched and runtimeAlloc classify runtime functions by name
// fragment; a runtime function matching neither counts as "other".
var (
	runtimeSched = []string{
		"chan", "park", "ready", "schedule", "findRunnable", "execute",
		"gogo", "mcall", "futex", "lock", "runq", "waitq", "casgstatus",
		"steal", "spinning", "wakep", "note", "yield", "usleep", "select",
		"newproc", "goexit", "gfget", "gfput", "Sudog", "timer", "Timers",
		"netpoll", "startm", "stopm", "mPark", "send", "recv", "stack",
		"nanotime", "acquirem", "releasem", "injectglist", "globrunq",
		"sysmon", "retake", "preempt", "syscall", "guintptr", "gdestroy",
		"gostartcall",
	}
	// GC stack scanning (unwinder, findfunc, pcvalue, ...) counts as
	// collection work.
	runtimeAlloc = []string{
		"malloc", "gc", "GC", "sweep", "scav", "mark", "heap", "Heap",
		"span", "Span", "mcache", "MCache", "mcentral", "scanobject",
		"greyobject", "findObject", "wbBuf", "Barrier", "newobject",
		"makeslice", "growslice", "newarray", "nextFree", "pageAlloc",
		"scanframe", "scanstack", "memclr", "typePointers", "fixalloc",
		"profilealloc", "persistentalloc", "Assist", "unwinder", "findfunc",
		"stkframe", "StackMap", "pcvalue", "findmoduledatap",
	}
)

// layerOf maps a fully qualified function name, as a profile records it
// ("spiffi/internal/sim.(*Kernel).Run", "runtime.chanrecv"), to its layer.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if name, ok := strings.CutPrefix(pkg, "spiffi/internal/"); ok {
		for _, l := range cpuLayers {
			if l == name {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" {
		// Allocation is tested first: "gcDrain" must not match "send".
		name := strings.TrimPrefix(fn, "runtime.")
		for _, frag := range runtimeAlloc {
			if strings.Contains(name, frag) {
				return "runtime_alloc"
			}
		}
		for _, frag := range runtimeSched {
			if strings.Contains(name, frag) {
				return "runtime_sched"
			}
		}
	}
	return "other"
}

// cpuShares decodes a CPU profile and returns each layer's share of the
// sampled CPU time, charging every sample to its innermost frame. The
// shares of all layers in cpuLayers sum to 1.
func cpuShares(data []byte) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	col := len(p.sampleTypes) - 1 // CPU profiles carry samples/count, cpu/nanoseconds
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile has no sample types")
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if col >= len(s.values) {
			continue
		}
		v := float64(s.values[col])
		layer := "other"
		if len(s.locs) > 0 {
			if fns := p.locations[s.locs[0]]; len(fns) > 0 {
				layer = layerOf(p.functions[fns[0]])
			}
		}
		byLayer[layer] += v
		total += v
	}
	if total == 0 {
		return nil, errors.New("profile holds no CPU samples")
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = byLayer[l] / total
	}
	return shares, nil
}

// profile is the part of profile.proto the layer attribution needs.
type profile struct {
	sampleTypes []string // the type name of each sample value column
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]string   // function id -> name
}

type sample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

// Field numbers from profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6
	fValueTypeType      = 1
	fSampleLocationID   = 1
	fSampleValue        = 2
	fLocationID         = 1
	fLocationLine       = 4
	fLineFunctionID     = 1
	fFunctionID         = 1
	fFunctionName       = 2
)

// parseProfile decodes a (possibly gzip-compressed) profile. Names are
// string-table indices on the wire and the table may come last, so they
// are resolved after the whole message is read.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var typeIdx []int64
	fnName := map[uint64]int64{}
	err := forEachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			return forEachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s sample
			err := forEachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case fSampleLocationID:
					return appendVarints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return appendVarints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := forEachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return forEachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == fLineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := forEachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case fProfileStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, i := range fnName {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.functions[id] = s
	}
	return p, nil
}

// forEachField walks one protobuf message, calling fn with each field's
// number and wire type plus its varint value (wire types 0, 1 and 5) or
// its bytes (wire type 2).
func forEachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding: one
// varint per field (wire type 0) or a packed run (wire type 2).
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire != 2 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
