package storage

import (
	"bytes"
	"testing"

	"repro/internal/rum"
)

// recordedEvent is one captured hook emission.
type recordedEvent struct {
	Ev    Event
	ID    PageID
	Class rum.Class
	Cost  uint64
}

// recorder is a test Hook capturing every event in order.
type recorder struct {
	events []recordedEvent
}

func (r *recorder) StorageEvent(ev Event, id PageID, class rum.Class, cost uint64) {
	r.events = append(r.events, recordedEvent{ev, id, class, cost})
}

func (r *recorder) count(ev Event) int {
	n := 0
	for _, e := range r.events {
		if e.Ev == ev {
			n++
		}
	}
	return n
}

func TestDeviceHookEvents(t *testing.T) {
	rec := &recorder{}
	d := NewDevice(64, SSD, nil)
	d.SetHook(rec)
	base := d.Alloc(rum.Base)
	aux := d.Alloc(rum.Aux)

	if _, err := d.Read(base); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(aux, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteInPlace(base); err != nil {
		t.Fatal(err)
	}

	want := []recordedEvent{
		{EvRead, base, rum.Base, 4},   // SSD read cost
		{EvWrite, aux, rum.Aux, 20},   // SSD write cost
		{EvWrite, base, rum.Base, 20}, // in-place write costs the same
	}
	if len(rec.events) != len(want) {
		t.Fatalf("events: got %v want %v", rec.events, want)
	}
	for i, e := range rec.events {
		if e != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, e, want[i])
		}
	}

	// A failed (injected) read emits an EvFault event instead of an EvRead.
	// The event carries the attempted operation's weighted cost (the SSD
	// read cost here) even though the failed transfer counts no traffic in
	// stats or the meter — the event is the failure's only cost trace.
	d.SetInjector(&scriptInjector{failRead: map[uint64]error{1: permanent()}})
	before := len(rec.events)
	if _, err := d.Read(base); err == nil {
		t.Fatal("expected injected fault")
	}
	if len(rec.events) != before+1 {
		t.Fatalf("failed read emitted %d events, want 1", len(rec.events)-before)
	}
	if e := rec.events[before]; e.Ev != EvFault || e.ID != base || e.Cost != 4 {
		t.Fatalf("fault event: %+v", e)
	}
	if st := d.Stats(); st.PageReads != 1 || st.CostUnits != 44 {
		t.Fatalf("failed read counted traffic: %+v", st)
	}
	before = len(rec.events)
	d.SetInjector(nil)

	// Detaching stops emissions.
	d.SetHook(nil)
	if _, err := d.Read(base); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != before {
		t.Fatal("detached hook still received events")
	}
}

func TestPoolHookEvents(t *testing.T) {
	rec := &recorder{}
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 1)
	p.SetHook(rec)
	a := d.Alloc(rum.Base)
	b := d.Alloc(rum.Aux)

	f, _ := p.Fetch(a) // miss
	p.Release(f)
	f, _ = p.Fetch(a) // hit
	p.Release(f)
	f, _ = p.Fetch(a) // hit again
	copy(f.Data(), bytes.Repeat([]byte{1}, 64))
	f.MarkDirty()
	p.Release(f)
	f, _ = p.Fetch(b) // miss; evicts dirty a → writeback + eviction
	p.Release(f)

	if got := rec.count(EvMiss); got != 2 {
		t.Fatalf("misses: %d", got)
	}
	if got := rec.count(EvHit); got != 2 {
		t.Fatalf("hits: %d", got)
	}
	if got := rec.count(EvWriteBack); got != 1 {
		t.Fatalf("writebacks: %d", got)
	}
	if got := rec.count(EvEvict); got != 1 {
		t.Fatalf("evictions: %d", got)
	}
	// Hook counts must agree with PoolStats.
	st := p.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 || st.WriteBacks != 1 {
		t.Fatalf("stats diverge from hook: %+v", st)
	}
	// Hit events carry the page's class and zero cost.
	for _, e := range rec.events {
		if e.Ev == EvHit && (e.Class != rum.Base || e.Cost != 0) {
			t.Fatalf("hit event: %+v", e)
		}
	}
}

func TestEventString(t *testing.T) {
	names := map[Event]string{
		EvRead: "read", EvWrite: "write", EvHit: "hit", EvMiss: "miss",
		EvEvict: "eviction", EvWriteBack: "writeback",
		EvFault: "fault", EvTorn: "torn", EvCrash: "crash", EvRetry: "retry",
		Event(99): "unknown",
	}
	for ev, want := range names {
		if got := ev.String(); got != want {
			t.Fatalf("Event(%d).String() = %q, want %q", ev, got, want)
		}
	}
}

// TestPoolStatsEvictionWriteBackCounts drives a capacity-2 pool through a
// scan of 6 pages, half of them dirtied, and checks the exact eviction and
// write-back ledger.
func TestPoolStatsEvictionWriteBackCounts(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 2)
	ids := make([]PageID, 6)
	for i := range ids {
		ids[i] = d.Alloc(rum.Base)
	}
	for i, id := range ids {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			f.Data()[0] = byte(i + 1)
			f.MarkDirty()
		}
		p.Release(f)
	}
	st := p.Stats()
	// 6 distinct pages through 2 frames: 6 misses, 0 hits, 4 evictions
	// (the last 2 frames stay resident), and write-backs only for the dirty
	// evicted pages (ids 0, 2; id 4 is still cached dirty).
	if st.Misses != 6 || st.Hits != 0 {
		t.Fatalf("hit/miss: %+v", st)
	}
	if st.Evictions != 4 {
		t.Fatalf("evictions: %d", st.Evictions)
	}
	if st.WriteBacks != 2 {
		t.Fatalf("writebacks: %d", st.WriteBacks)
	}
	if st.HitRatio() != 0 {
		t.Fatalf("hit ratio: %v", st.HitRatio())
	}
	p.FlushAll()
	if got := p.Stats().WriteBacks; got != 3 {
		t.Fatalf("writebacks after flush: %d", got)
	}
}

// TestPoolStatsOverflowsAllPinned pins more frames than the pool holds and
// checks every extra frame is an overflow, then verifies the pool drains
// back under capacity once pins are released.
func TestPoolStatsOverflowsAllPinned(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 2)
	var frames []*Frame
	for i := 0; i < 5; i++ {
		f, err := p.NewPage(rum.Base)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if got := p.Stats().Overflows; got != 3 {
		t.Fatalf("overflows: %d", got)
	}
	if p.Len() != 5 {
		t.Fatalf("len with pins: %d", p.Len())
	}
	for _, f := range frames {
		p.Release(f)
	}
	// With pins gone, the next install can evict instead of overflowing.
	f, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	if got := p.Stats().Overflows; got != 3 {
		t.Fatalf("overflow after release: %d", got)
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("expected an eviction once pins were released")
	}
	if p.Len() > 2 {
		t.Fatalf("pool stayed over capacity after pins were released: %d frames", p.Len())
	}
}

// TestHitRatioUntouchedPool asserts the untouched-pool convention directly
// on a live pool, not just the zero PoolStats value.
func TestHitRatioUntouchedPool(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	p := NewBufferPool(d, 4)
	if r := p.Stats().HitRatio(); r != 0 {
		t.Fatalf("untouched pool hit ratio: %v", r)
	}
}
