package proto

import (
	"strings"
	"testing"
)

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	f()
}

// isZero reports whether r is the zero request.
func isZero(r *BlockRequest) bool {
	return r.Video == 0 && r.Block == 0 && r.Size == 0 && r.Deadline == 0 &&
		r.Terminal == 0 && r.Copy == 0 && r.Attempt == 0 && r.Status == 0 &&
		r.Issued == 0 && r.Deliver == nil && r.hop == nil
}

func TestFreeListRecyclesPoisoned(t *testing.T) {
	var l FreeList
	r := l.Get()
	if !isZero(r) {
		t.Fatalf("fresh request not zero: %+v", *r)
	}
	r.Video, r.Block, r.Size, r.Terminal = 3, 7, 1024, 5
	r.Deliver = func(*BlockRequest) {}
	l.Put(r)
	if l.Len() != 1 || !r.Poisoned() {
		t.Fatalf("after Put: len %d, poisoned %v", l.Len(), r.Poisoned())
	}
	if r.Video >= 0 || r.Block >= 0 || r.Size >= 0 || r.Terminal >= 0 {
		t.Fatalf("put-back request still names a block: %+v", *r)
	}
	mustPanic(t, "used after it was put back", func() { r.Deliver(r) })
	mustPanic(t, "used after it was put back", r.Fire)

	again := l.Get()
	if again != r || l.Len() != 0 {
		t.Fatalf("Get did not reuse the put-back request (len %d)", l.Len())
	}
	if !isZero(again) {
		t.Fatalf("reused request not zeroed: %+v", *again)
	}
}

func TestFreeListCatchesMisuse(t *testing.T) {
	var l FreeList
	r := l.Get()
	l.Put(r)
	mustPanic(t, "put back twice", func() { l.Put(r) })

	r.Block = 9 // a write after Put
	mustPanic(t, "written after it was put back", func() { l.Get() })
}

// A request rebuilt by the rebuild pass or a test looks nothing like a
// poisoned one, even with Terminal -1.
func TestPoisonedNeedsEveryField(t *testing.T) {
	r := &BlockRequest{Video: -1, Block: -1, Size: -1, Deadline: -1, Terminal: -1,
		Copy: -1, Attempt: -1, Status: -1}
	if r.Poisoned() {
		t.Fatal("a request with Issued 0 reads as poisoned")
	}
	if (&BlockRequest{Terminal: -1}).Poisoned() {
		t.Fatal("a prefetch worker's request reads as poisoned")
	}
}
