//go:build racecheck

package storage

import (
	"testing"

	"repro/internal/rum"
)

// TestOwnercheckCrossGoroutine verifies the racecheck build turns cross-
// goroutine use of a Device into a panic instead of silent meter corruption.
func TestOwnercheckCrossGoroutine(t *testing.T) {
	d := NewDevice(64, RAM, nil)
	id := d.Alloc(rum.Base) // binds d to this goroutine
	if _, err := d.Read(id); err != nil {
		t.Fatal(err)
	}
	violated := make(chan bool, 1)
	go func() {
		defer func() { violated <- recover() != nil }()
		d.Read(id)
	}()
	if !<-violated {
		t.Fatal("cross-goroutine Device use did not panic under -tags racecheck")
	}
}

// TestOwnercheckSameGoroutine verifies repeated use from the owner stays
// silent, including through a BufferPool.
func TestOwnercheckSameGoroutine(t *testing.T) {
	p := NewBufferPool(NewDevice(64, RAM, nil), 2)
	f, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(f)
	p.FlushAll()
	p.DropAll()
}

// TestPincheckStaleFrame verifies the racecheck build turns use of a frame
// after Release — whose buffer the next eviction hands to another page —
// into a panic instead of a silent read of the wrong page.
func TestPincheckStaleFrame(t *testing.T) {
	p := NewBufferPool(NewDevice(64, RAM, nil), 2)
	f, err := p.NewPage(rum.Base)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 1
	f.MarkDirty()
	p.Release(f)
	for name, use := range map[string]func(){
		"Data":      func() { f.Data() },
		"MarkDirty": func() { f.MarkDirty() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a released frame did not panic under -tags racecheck", name)
				}
			}()
			use()
		}()
	}
}
