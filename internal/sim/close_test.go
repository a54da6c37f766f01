//go:build go1.24

// The weak package needs Go 1.24, above the module's go line.

package sim

import (
	"runtime"
	"testing"
	"weak"
)

// Close unwinds a parked process and drops its function, so a Queue that
// outlives the kernel does not keep what the process captured alive.
func TestCloseReleasesParkedProcessState(t *testing.T) {
	k := NewKernel()
	var q Queue
	captured := parkHolding(k, &q)
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 1 {
		t.Fatalf("%d parked, want 1", q.Len())
	}
	k.Close()
	runtime.GC()
	if captured.Value() != nil {
		t.Fatal("state captured by a process unwound by Close is still reachable")
	}
	runtime.KeepAlive(&q)
}

// parkHolding spawns a process that captures a fresh object and parks on
// q, and returns a weak pointer to the object.
func parkHolding(k *Kernel, q *Queue) weak.Pointer[[64]byte] {
	obj := new([64]byte)
	k.Spawn("holder", func(p *Proc) {
		q.Wait(p)
		obj[0]++
	})
	return weak.Make(obj)
}
