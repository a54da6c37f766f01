package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spiffi/internal/sim"
)

// newTestRecorder returns a recorder whose kernel clock can be stepped
// with the returned advance func.
func newTestRecorder(t *testing.T, capacity int) (*Recorder, func(sim.Time)) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	r := NewRecorder(k, Options{Enabled: true, Capacity: capacity})
	advance := func(to sim.Time) {
		k.At(to, func() {})
		if err := k.Run(to); err != nil {
			t.Fatal(err)
		}
	}
	return r, advance
}

func TestRecorderDisabled(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	if r := NewRecorder(k, Options{}); r != nil {
		t.Fatalf("disabled options must yield a nil recorder, got %v", r)
	}
	// Every emit method and Snapshot must be safe on nil.
	var r *Recorder
	r.DiskEnqueue(1, 2, 3, false, 4)
	r.DiskDispatch(1, 2, 3, true, 4)
	r.DiskComplete(1, 2, 3, false, true)
	r.PoolHit(1, 2, 3, 4, false)
	r.PoolMiss(1, 2, 3, 4)
	r.PoolPrefetch(1, 2, 3, 4)
	r.PoolProtect(1, 2, 3, 4)
	r.PoolEvict(1, 2, 3, true)
	r.NetSend(100, 5, false)
	r.AdmWait(1, 2, 3)
	r.AdmAdmit(1, 2, 3)
	r.AdmRelease(1, 2, 3)
	r.TermBuffer(1, 2, 3, 4)
	r.TermGlitch(1, CauseTimeout, 2, 3, 4)
	r.TermPrime(1, 2, 3, 4)
	r.TermSeek(1, 2, 3)
	if d := r.Snapshot(); d != nil {
		t.Fatalf("nil recorder Snapshot = %v, want nil", d)
	}
}

func TestRecorderRecordsInOrder(t *testing.T) {
	r, advance := newTestRecorder(t, 16)
	r.DiskEnqueue(3, 7, sim.Time(5*sim.Second), false, 2)
	advance(sim.Time(1 * sim.Second))
	r.DiskDispatch(3, 7, 200*sim.Microsecond, false, 1)
	advance(sim.Time(2 * sim.Second))
	r.DiskComplete(3, 7, 15*sim.Millisecond, false, false)

	d := r.Snapshot()
	if d.Total != 3 || len(d.Events) != 3 || d.Dropped() != 0 {
		t.Fatalf("snapshot totals = %d/%d/%d, want 3/3/0", d.Total, len(d.Events), d.Dropped())
	}
	want := []Kind{KindDiskEnqueue, KindDiskDispatch, KindDiskComplete}
	for i, ev := range d.Events {
		if ev.Kind != want[i] {
			t.Errorf("event %d kind = %s, want %s", i, ev.Kind.Name(), want[i].Name())
		}
		if ev.Terminal != 7 || ev.A != 3 {
			t.Errorf("event %d terminal/disk = %d/%d, want 7/3", i, ev.Terminal, ev.A)
		}
	}
	if d.Events[0].T != 0 || d.Events[1].T != sim.Time(sim.Second) || d.Events[2].T != sim.Time(2*sim.Second) {
		t.Errorf("timestamps = %v %v %v", d.Events[0].T, d.Events[1].T, d.Events[2].T)
	}
	// Histograms see the dispatch wait and the service time.
	if n := d.DiskWait.Count(); n != 1 {
		t.Errorf("DiskWait count = %d, want 1", n)
	}
	if n := d.DiskService.Count(); n != 1 {
		t.Errorf("DiskService count = %d, want 1", n)
	}
}

func TestRecorderInfiniteDeadline(t *testing.T) {
	r, _ := newTestRecorder(t, 4)
	r.DiskEnqueue(0, -1, sim.TimeInfinity, true, 0)
	ev := r.Snapshot().Events[0]
	if ev.C != NoDeadline {
		t.Fatalf("infinite deadline recorded as %d, want %d", ev.C, NoDeadline)
	}
	if ev.D != 1 {
		t.Fatalf("prefetch flag = %d, want 1", ev.D)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r, _ := newTestRecorder(t, 4)
	for i := 0; i < 10; i++ {
		r.PoolMiss(0, i, 0, i)
	}
	d := r.Snapshot()
	if d.Total != 10 || len(d.Events) != 4 || d.Dropped() != 6 {
		t.Fatalf("totals = %d/%d/%d, want 10/4/6", d.Total, len(d.Events), d.Dropped())
	}
	for i, ev := range d.Events {
		if want := int64(6 + i); ev.C != want {
			t.Errorf("retained event %d block = %d, want %d (newest must win)", i, ev.C, want)
		}
	}
}

// TestEmitNoAlloc pins the zero-allocation hot-path contract, for both
// the enabled and the disabled (nil receiver) recorder.
func TestEmitNoAlloc(t *testing.T) {
	r, _ := newTestRecorder(t, 1024)
	if n := testing.AllocsPerRun(1000, func() {
		r.DiskEnqueue(1, 2, sim.Time(3), false, 4)
		r.TermBuffer(1, 1<<20, 2, 3)
		r.NetSend(4096, 5*sim.Microsecond, false)
	}); n != 0 {
		t.Fatalf("enabled emit allocates %v per call, want 0", n)
	}
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		nilRec.DiskEnqueue(1, 2, sim.Time(3), false, 4)
	}); n != 0 {
		t.Fatalf("disabled emit allocates %v per call, want 0", n)
	}
}

func TestCountByKindAndGlitches(t *testing.T) {
	r, _ := newTestRecorder(t, 16)
	r.PoolHit(0, 1, 2, 3, false)
	r.PoolHit(0, 1, 2, 4, true)
	r.TermGlitch(9, CauseDiskFail, 2, 100, 777)
	d := r.Snapshot()
	counts := d.CountByKind()
	if counts[KindPoolHit] != 2 || counts[KindTermGlitch] != 1 {
		t.Fatalf("counts = hit:%d glitch:%d, want 2/1", counts[KindPoolHit], counts[KindTermGlitch])
	}
	gs := d.Glitches()
	if len(gs) != 1 || gs[0].Terminal != 9 || gs[0].A != CauseDiskFail || gs[0].D != 777 {
		t.Fatalf("glitches = %+v", gs)
	}
}

func TestPostMortemFiltersTerminalAndTime(t *testing.T) {
	r, advance := newTestRecorder(t, 32)
	for i := 0; i < 5; i++ {
		advance(sim.Time(i+1) * sim.Time(sim.Second))
		r.TermBuffer(1, int64(i), 0, i) // terminal 1: the victim
		r.TermBuffer(2, 100, 0, 0)      // terminal 2: noise
	}
	advance(sim.Time(6 * sim.Second))
	r.TermGlitch(1, CauseUnderrun, 0, 42, 0)
	advance(sim.Time(7 * sim.Second))
	r.TermBuffer(1, 999, 0, 0) // after the glitch: must be excluded

	d := r.Snapshot()
	glitch := d.Glitches()[0]
	pm := d.PostMortem(glitch.Terminal, glitch.T, 3)
	if len(pm) != 3 {
		t.Fatalf("post-mortem has %d events, want 3", len(pm))
	}
	// Chronological, terminal 1 only, ending at the glitch.
	if pm[len(pm)-1].Kind != KindTermGlitch {
		t.Errorf("last event = %s, want the glitch", pm[len(pm)-1].Kind.Name())
	}
	for i, ev := range pm {
		if ev.Terminal != 1 {
			t.Errorf("event %d terminal = %d, want 1", i, ev.Terminal)
		}
		if i > 0 && ev.T < pm[i-1].T {
			t.Errorf("events out of order at %d", i)
		}
	}
}

func TestWriteJSONLSchemaAndDeterminism(t *testing.T) {
	r, advance := newTestRecorder(t, 16)
	advance(sim.Time(412*sim.Second + 123))
	r.DiskDispatch(3, 17, 250*sim.Microsecond, true, 5)
	r.NetSend(65536, 7620*sim.Nanosecond, false)
	r.TermGlitch(17, CauseTimeout, 4, 1200, 4096)
	d := r.Snapshot()

	var a, b bytes.Buffer
	if err := WriteJSONL(&a, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two JSONL exports of the same data differ")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), a.String())
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &obj); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	for _, field := range []string{"t_ns", "kind", "terminal", "disk", "qlen", "wait_ns", "prefetch"} {
		if _, ok := obj[field]; !ok {
			t.Errorf("disk.dispatch line missing field %q: %s", field, lines[0])
		}
	}
	if obj["kind"] != "disk.dispatch" || obj["wait_ns"] != float64(250000) {
		t.Errorf("disk.dispatch fields wrong: %v", obj)
	}
	// net.send is not terminal-attributable.
	obj = nil // Unmarshal merges into a non-nil map; start fresh
	if err := json.Unmarshal([]byte(lines[1]), &obj); err != nil {
		t.Fatal(err)
	}
	if _, ok := obj["terminal"]; ok {
		t.Errorf("net.send must not carry a terminal field: %s", lines[1])
	}
}

func TestWriteChromeTraceParses(t *testing.T) {
	r, advance := newTestRecorder(t, 64)
	r.DiskEnqueue(2, 5, sim.Time(900*sim.Millisecond), false, 1)
	advance(sim.Time(1 * sim.Millisecond))
	r.DiskDispatch(2, 5, sim.Millisecond, false, 0)
	advance(sim.Time(10*sim.Millisecond + 500))
	r.DiskComplete(2, 5, 9*sim.Millisecond+500, false, false)
	r.PoolHit(0, 5, 1, 2, false)
	r.TermBuffer(5, 1<<20, 1, 3)
	r.TermGlitch(5, CauseUnderrun, 1, 77, 0)
	r.AdmAdmit(5, 10, 64)
	r.NetSend(1024, 5*sim.Microsecond, true)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
	}
	if phases["X"] != 1 {
		t.Errorf("want exactly 1 duration slice (disk.complete), got %d", phases["X"])
	}
	if phases["C"] < 3 { // queue depth ×2, buffer, admission
		t.Errorf("want >=3 counter events, got %d", phases["C"])
	}
	if phases["i"] < 2 { // pool hit, glitch, net drop
		t.Errorf("want >=2 instant events, got %d", phases["i"])
	}
	if phases["M"] != 6 {
		t.Errorf("want 6 process_name metadata events, got %d", phases["M"])
	}
}

func TestWriteSummaryAndPostMortem(t *testing.T) {
	r, advance := newTestRecorder(t, 16)
	r.DiskDispatch(0, 3, 2*sim.Millisecond, false, 0)
	advance(sim.Time(sim.Second))
	r.TermGlitch(3, CauseDiskFail, 1, 50, 0)
	d := r.Snapshot()

	var sum bytes.Buffer
	if err := WriteSummary(&sum, d); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 events emitted", "disk.dispatch", "term.glitch", "cause=diskfail", "disk wait (s)"} {
		if !strings.Contains(sum.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sum.String())
		}
	}

	var pm bytes.Buffer
	if err := WritePostMortem(&pm, d, d.Glitches()[0], 8); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"terminal 3 glitched", "disk.dispatch", "term.glitch"} {
		if !strings.Contains(pm.String(), want) {
			t.Errorf("post-mortem missing %q:\n%s", want, pm.String())
		}
	}
}

func TestExportFormats(t *testing.T) {
	r, _ := newTestRecorder(t, 4)
	r.PoolMiss(0, 1, 2, 3)
	d := r.Snapshot()
	for _, f := range []string{"jsonl", "chrome", "summary"} {
		var buf bytes.Buffer
		if err := Export(&buf, d, f); err != nil {
			t.Errorf("Export(%q) = %v", f, err)
		}
		if buf.Len() == 0 {
			t.Errorf("Export(%q) wrote nothing", f)
		}
	}
	if err := Export(&bytes.Buffer{}, d, "xml"); err == nil {
		t.Error("Export with unknown format must error")
	}
}

func TestUsecRendering(t *testing.T) {
	if got := usec(sim.Time(412000123000)); got != "412000123" {
		t.Errorf("usec whole = %s", got)
	}
	if got := usec(sim.Time(412000123456)); got != "412000123.456" {
		t.Errorf("usec fractional = %s", got)
	}
}
