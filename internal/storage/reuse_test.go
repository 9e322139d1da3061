package storage

import (
	"bytes"
	"testing"

	"repro/internal/rum"
)

// missCycle builds a pool of capacity pages over four times as many device
// pages and returns a function that fetches the next page in order. Cycling
// through every page misses on every Fetch under LRU, so each call evicts
// one frame and installs one page. With dirty set, every fetched frame is
// marked dirty, so evictions write back.
func missCycle(t testing.TB, m Medium, capacity int, dirty bool) (*BufferPool, func()) {
	d := NewDevice(4096, m, nil)
	p := NewBufferPool(d, capacity)
	ids := make([]PageID, 4*capacity)
	for i := range ids {
		ids[i] = d.Alloc(rum.Base)
	}
	i := 0
	return p, func() {
		f, err := p.Fetch(ids[i%len(ids)])
		if err != nil {
			t.Fatal(err)
		}
		if dirty {
			f.Data()[0]++
			f.MarkDirty()
		}
		p.Release(f)
		i++
	}
}

// TestPoolMissAllocFree: once the pool is full, a miss reuses the evicted
// frame and its buffer, so the steady-state miss path allocates nothing.
func TestPoolMissAllocFree(t *testing.T) {
	if debugChecks {
		t.Skip("racecheck assertions allocate")
	}
	for _, tc := range []struct {
		name   string
		medium Medium
		dirty  bool
	}{
		{"ram-clean", RAM, false},
		// Dirty evictions on multi-queue media go through the batched
		// victim group (flushVictim, flushGroup).
		{"mqssd-dirty", MQSSD, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, next := missCycle(t, tc.medium, 16, tc.dirty)
			for i := 0; i < 256; i++ { // fill the pool and warm the scratch
				next()
			}
			s0, b0 := p.Stats(), p.dev.Stats().Batches
			if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
				t.Fatalf("miss allocates %v per op, want 0", allocs)
			}
			st := p.Stats()
			if st.Hits != s0.Hits || st.Misses == s0.Misses || st.Overflows != 0 {
				t.Fatalf("cycle did not miss on every fetch: %+v", st)
			}
			if tc.dirty && p.dev.Stats().Batches == b0 {
				t.Fatal("dirty evictions never formed a batched group")
			}
		})
	}
}

// TestPoolFrameReuse: a reused frame carries nothing of its previous page.
// NewPage returns a zeroed buffer, Fetch returns the device image, and the
// victim's dirty bytes reach the device before its buffer is handed over.
func TestPoolFrameReuse(t *testing.T) {
	for _, m := range []Medium{RAM, MQSSD} {
		t.Run(m.String(), func(t *testing.T) {
			d := NewDevice(64, m, nil)
			p := NewBufferPool(d, 1)
			fa, err := p.NewPage(rum.Base)
			if err != nil {
				t.Fatal(err)
			}
			a, bufA := fa.ID(), &fa.Data()[0]
			copy(fa.Data(), bytes.Repeat([]byte{0xAA}, 64))
			p.Release(fa)

			fb, err := p.NewPage(rum.Base) // evicts a, reusing its frame
			if err != nil {
				t.Fatal(err)
			}
			if fb != fa || &fb.Data()[0] != bufA {
				t.Fatal("eviction did not hand the victim's frame to the new page")
			}
			if !bytes.Equal(fb.Data(), make([]byte, 64)) {
				t.Fatalf("NewPage into a reused frame is not zeroed: %x", fb.Data())
			}
			if got, _ := d.Read(a); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 64)) {
				t.Fatalf("victim's dirty bytes did not reach the device: %x", got)
			}
			b := fb.ID()
			copy(fb.Data(), bytes.Repeat([]byte{0xBB}, 64))
			p.Release(fb)

			fa2, err := p.Fetch(a) // evicts b, reusing its frame again
			if err != nil {
				t.Fatal(err)
			}
			if fa2 != fa {
				t.Fatal("fetch did not reuse the victim's frame")
			}
			if !bytes.Equal(fa2.Data(), bytes.Repeat([]byte{0xAA}, 64)) {
				t.Fatalf("fetch into a reused frame is not the device image: %x", fa2.Data())
			}
			p.Release(fa2)
			if got, _ := d.Read(b); !bytes.Equal(got, bytes.Repeat([]byte{0xBB}, 64)) {
				t.Fatalf("victim's dirty bytes did not reach the device: %x", got)
			}
			if st := p.Stats(); st.Evictions != 2 || st.WriteBacks != 2 || st.Overflows != 0 {
				t.Fatalf("ledger: %+v", st)
			}
		})
	}
}

// BenchmarkPoolFetchHit: Fetch+Release of a cached page.
func BenchmarkPoolFetchHit(b *testing.B) {
	d := NewDevice(4096, RAM, nil)
	p := NewBufferPool(d, 64)
	ids := make([]PageID, 32)
	for i := range ids {
		ids[i] = d.Alloc(rum.Base)
		f, err := p.Fetch(ids[i])
		if err != nil {
			b.Fatal(err)
		}
		p.Release(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := p.Fetch(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		p.Release(f)
	}
}

// BenchmarkPoolFetchMiss: Fetch+Release that misses on every call, evicting
// one clean frame.
func BenchmarkPoolFetchMiss(b *testing.B) {
	p, next := missCycle(b, RAM, 64, false)
	for i := 0; i < 4*p.Capacity(); i++ {
		next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}
