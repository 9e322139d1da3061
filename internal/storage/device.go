// Package storage simulates the block storage substrate that the paper's
// cost model (the Aggarwal–Vitter I/O model used in Table 1) assumes: data
// lives in fixed-size pages, every access moves whole pages, and the cost of
// an operation is the number of pages it touches, weighted by the medium.
//
// A Device counts page reads and writes and feeds them into a rum.Meter so
// that read and write amplification of page-based access methods fall out of
// the accounting automatically. A BufferPool models the MEM parameter of
// Table 1: pages cached in the pool are served without device traffic.
package storage

import (
	"errors"
	"fmt"

	"repro/internal/rum"
)

// PageID identifies a page on a Device. Zero is a valid page.
type PageID uint32

// InvalidPage is a sentinel PageID used for "no page".
const InvalidPage = PageID(^uint32(0))

// Medium describes the simulated storage technology. It sets relative access
// costs, used to produce the paper's observation that different hardware
// shifts RUM priorities (flash penalizes writes, disk penalizes random reads).
type Medium int

const (
	// RAM has symmetric, cheap accesses.
	RAM Medium = iota
	// SSD reads cheaply but pays a write penalty (flash asymmetry, §2).
	SSD
	// HDD pays a large cost on every page access (seek-dominated).
	HDD
	// SMR models shingled disks: HDD reads, very expensive random writes.
	SMR
	// MQSSD is a multi-queue NVMe SSD: per-page service times identical to
	// SSD, but with internal channel parallelism, so batched submissions
	// amortize their service time across the achieved queue depth (see
	// CostModel). Depth-1 traffic prices exactly like SSD.
	MQSSD
)

// String names the medium.
func (m Medium) String() string {
	switch m {
	case RAM:
		return "ram"
	case SSD:
		return "ssd"
	case HDD:
		return "hdd"
	case SMR:
		return "smr"
	case MQSSD:
		return "mqssd"
	default:
		// Invalid media cannot reach a Device (NewDevice panics), but the
		// diagnostic form is kept for error paths that print a raw value.
		return fmt.Sprintf("medium(%d)", int(m))
	}
}

// DeviceStats aggregates the traffic a Device has served.
type DeviceStats struct {
	PageReads      uint64
	PageWrites     uint64
	PagesAllocated uint64
	PagesFreed     uint64
	CostUnits      uint64 // medium-weighted access cost
	// Batches counts batch submissions charged at depth (ReadBatch and
	// WriteBatch calls that took the amortized path); BatchedPages is the
	// pages they carried. Per-page traffic within batches still counts in
	// PageReads/PageWrites.
	Batches      uint64
	BatchedPages uint64
}

// Errors returned by Device operations.
var (
	ErrBadPage  = errors.New("storage: invalid page id")
	ErrFreed    = errors.New("storage: page already freed")
	ErrInjected = errors.New("storage: injected fault")
	// ErrTransient marks an injected fault as retryable: a repeated attempt
	// may succeed (the buffer pool's retry budget only retries these). It
	// wraps ErrInjected, so errors.Is(err, ErrInjected) also holds.
	ErrTransient = fmt.Errorf("%w (transient)", ErrInjected)
	// ErrCrash is the crash sentinel: once an injected fault wraps it, the
	// device latches into the crashed state and every subsequent Read,
	// Write, and Free fails with it until Reopen is called. It simulates
	// the process dying at that instant — whatever was not yet written to
	// the device (dirty buffer-pool frames, in-memory metadata) is lost.
	ErrCrash = errors.New("storage: device crashed")
)

// FaultInjector decides, per device operation, whether to inject a failure.
// The canonical implementation is internal/faults.Injector, a deterministic
// seed-driven scheduler; tests may supply their own. An injector is
// single-owner like the Device it is armed on: it is consulted from the
// device's goroutine only, and never shared between run cells.
type FaultInjector interface {
	// ReadFault is consulted once per page read. A non-nil error fails the
	// read (no traffic is counted). Errors wrapping ErrTransient are
	// retryable; errors wrapping ErrCrash latch the device.
	ReadFault(id PageID) error
	// WriteFault is consulted once per page write. A non-nil error fails
	// the write; torn > 0 additionally persists the first torn bytes of
	// the page image before failing — a torn (partial) page write. torn is
	// ignored when err is nil.
	WriteFault(id PageID, pageSize int) (torn int, err error)
}

// Device is a simulated page-granular storage device. It is the single point
// through which page-based access methods touch data, so its counters are the
// ground truth for read and write amplification.
//
// A Device is single-writer: its mutating and metering entry points are not
// safe for concurrent use, and the parallel bench runner relies on every run
// cell constructing (or Cloning) its own Device rather than sharing one —
// sharing would corrupt the meter and stats silently. Builds with
// -tags racecheck bind each Device to the first goroutine that touches it
// and panic on use from any other. Concurrent readers are supported only
// through PageView (see view.go): an immutable capture of the page table
// that MVCC structures hand to snapshot readers, guarded in racecheck builds
// by per-page generation stamps instead of the goroutine binding.
type Device struct {
	owner     owner
	gen       pagegen
	pageSize  int
	medium    Medium
	pages     [][]byte
	class     []rum.Class
	live      []bool
	freeList  []PageID
	stats     DeviceStats
	meter     *rum.Meter
	model     CostModel
	injector  FaultInjector
	crashed   bool
	hook      Hook
	batchHook BatchHook // hook's BatchHook side, cached at SetHook; nil if none
}

// NewDevice creates a device with the given page size and medium, feeding its
// traffic into meter. A nil meter is replaced with a private one. An unknown
// medium panics: a silently-wrong cost ledger is worse than a crash at
// construction time.
func NewDevice(pageSize int, medium Medium, meter *rum.Meter) *Device {
	if pageSize <= 0 {
		panic("storage: page size must be positive")
	}
	if !medium.valid() {
		panic(fmt.Sprintf("storage: invalid medium %d (want RAM/SSD/HDD/SMR/MQSSD)", int(medium)))
	}
	if meter == nil {
		meter = &rum.Meter{}
	}
	return &Device{
		pageSize: pageSize,
		medium:   medium,
		meter:    meter,
		model:    medium.Model(),
	}
}

// SetInjector arms (or, with nil, disarms) a fault injector. The injector is
// consulted on every subsequent Read, Write, and WriteInPlace.
func (d *Device) SetInjector(inj FaultInjector) { d.injector = inj }

// Injector returns the currently armed fault injector, or nil.
func (d *Device) Injector() FaultInjector { return d.injector }

// Faulty reports whether a fault injector is armed. The buffer pool uses it
// to pick the copying Write path for flushes (so a torn write cannot corrupt
// the frame it flushes from) instead of the zero-copy WriteInPlace fast path.
func (d *Device) Faulty() bool { return d.injector != nil }

// Crashed reports whether the device is latched in the crashed state.
func (d *Device) Crashed() bool { return d.crashed }

// Reopen clears the crash latch, simulating a process restart against the
// surviving device image. Page contents, allocation state, and traffic
// counters are untouched; the injector stays armed (callers that want a
// clean post-crash device also call SetInjector(nil)).
func (d *Device) Reopen() { d.crashed = false }

// SetHook attaches (or, with nil, detaches) an observer for page events.
// Hooks that also implement BatchHook additionally receive one batch event
// per amortized ReadBatch/WriteBatch submission.
func (d *Device) SetHook(h Hook) {
	d.hook = h
	d.batchHook, _ = h.(BatchHook)
}

// fail is the single exit for every injected failure: it classifies err,
// latches the crash state when err wraps ErrCrash, emits the matching hook
// event(s), and returns the error annotated with the operation. cost is the
// medium-weighted cost of the attempted operation — the event carries what
// the failure cost, even though the failed transfer counts no traffic in
// stats or the meter (the hook event is its only trace). torn > 0 marks a
// torn write (that many bytes persisted before the failure): the event is
// EvTorn, followed by EvCrash when the tear was also the crash point.
func (d *Device) fail(err error, op string, id PageID, torn int, cost uint64) error {
	crash := errors.Is(err, ErrCrash)
	if crash {
		d.crashed = true
	}
	if torn > 0 {
		if d.hook != nil {
			d.hook.StorageEvent(EvTorn, id, d.class[id], cost)
			if crash {
				d.hook.StorageEvent(EvCrash, id, d.class[id], cost)
			}
		}
		return fmt.Errorf("%w: torn %s of page %d (%d/%d bytes persisted)",
			err, op, id, torn, d.pageSize)
	}
	if d.hook != nil {
		ev := EvFault
		if crash {
			ev = EvCrash
		}
		d.hook.StorageEvent(ev, id, d.class[id], cost)
	}
	return fmt.Errorf("%w: %s of page %d", err, op, id)
}

// PageSize returns the device page size in bytes.
func (d *Device) PageSize() int { return d.pageSize }

// Medium returns the simulated storage technology.
func (d *Device) Medium() Medium { return d.medium }

// CostModel returns the pricing model the device charges traffic under.
func (d *Device) CostModel() CostModel { return d.model }

// Meter returns the rum.Meter the device reports traffic to.
func (d *Device) Meter() *rum.Meter { return d.meter }

// Stats returns a copy of the device traffic counters.
func (d *Device) Stats() DeviceStats { return d.stats }

// ResetStats zeroes the traffic counters (allocation counts are kept, since
// they describe current occupancy rather than traffic).
func (d *Device) ResetStats() {
	d.stats.PageReads = 0
	d.stats.PageWrites = 0
	d.stats.CostUnits = 0
}

// LivePages returns the number of currently allocated pages.
func (d *Device) LivePages() int {
	return int(d.stats.PagesAllocated - d.stats.PagesFreed)
}

// LivePageIDs returns the ids of all currently allocated pages in ascending
// order. Recovery code uses it to scan the surviving image after a crash.
func (d *Device) LivePageIDs() []PageID {
	ids := make([]PageID, 0, d.LivePages())
	for id, alive := range d.live {
		if alive {
			ids = append(ids, PageID(id))
		}
	}
	return ids
}

// LiveBytes returns SizeInfo for the currently allocated pages, split by the
// rum.Class they were allocated under.
func (d *Device) LiveBytes() rum.SizeInfo {
	var s rum.SizeInfo
	for id, alive := range d.live {
		if !alive {
			continue
		}
		if d.class[id] == rum.Base {
			s.BaseBytes += uint64(d.pageSize)
		} else {
			s.AuxBytes += uint64(d.pageSize)
		}
	}
	return s
}

// Alloc allocates a zeroed page of the given data class and returns its id.
func (d *Device) Alloc(c rum.Class) PageID {
	d.owner.assert("Device")
	d.stats.PagesAllocated++
	if n := len(d.freeList); n > 0 {
		id := d.freeList[n-1]
		d.freeList = d.freeList[:n-1]
		clear(d.pages[id])
		d.class[id] = c
		d.live[id] = true
		return id
	}
	id := PageID(len(d.pages))
	d.pages = append(d.pages, make([]byte, d.pageSize))
	d.class = append(d.class, c)
	d.live = append(d.live, true)
	d.gen.grow(len(d.pages))
	return id
}

// Free releases a page back to the device. After a crash Free fails with
// ErrCrash: the surviving image is evidence for recovery, and a structure
// must not be able to release pages it no longer remembers owning. (Alloc
// stays available post-crash — recovery legitimately allocates, and any
// orphaned zeroed pages it abandons are garbage-collected by the reopened
// structure.)
func (d *Device) Free(id PageID) error {
	d.owner.assert("Device")
	if d.crashed {
		return fmt.Errorf("%w: free of page %d", ErrCrash, id)
	}
	if err := d.check(id); err != nil {
		return err
	}
	d.live[id] = false
	d.freeList = append(d.freeList, id)
	d.stats.PagesFreed++
	d.gen.bump(id)
	return nil
}

func (d *Device) check(id PageID) error {
	if int(id) >= len(d.pages) {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	if !d.live[id] {
		return fmt.Errorf("%w: %d", ErrFreed, id)
	}
	return nil
}

// Read returns the contents of a page, counting one page read. The returned
// slice aliases device memory; callers must copy it if they intend to keep it
// across a Write to the same page.
func (d *Device) Read(id PageID) ([]byte, error) {
	d.owner.assert("Device")
	if d.crashed {
		return nil, fmt.Errorf("%w: read of page %d", ErrCrash, id)
	}
	if err := d.check(id); err != nil {
		return nil, err
	}
	if d.injector != nil {
		if err := d.injector.ReadFault(id); err != nil {
			return nil, d.fail(err, "read", id, 0, d.model.ReadCost)
		}
	}
	d.stats.PageReads++
	d.stats.CostUnits += d.model.ReadCost
	d.meter.CountRead(d.class[id], d.pageSize)
	if d.hook != nil {
		d.hook.StorageEvent(EvRead, id, d.class[id], d.model.ReadCost)
	}
	return d.pages[id], nil
}

// Write replaces the contents of a page, counting one page write. data must
// be exactly one page long.
func (d *Device) Write(id PageID, data []byte) error {
	d.owner.assert("Device")
	if d.crashed {
		return fmt.Errorf("%w: write of page %d", ErrCrash, id)
	}
	if err := d.check(id); err != nil {
		return err
	}
	if len(data) != d.pageSize {
		return fmt.Errorf("storage: write of %d bytes to page of %d", len(data), d.pageSize)
	}
	if d.injector != nil {
		if torn, err := d.injector.WriteFault(id, d.pageSize); err != nil {
			if torn > 0 {
				// Torn write: a prefix of the page image reached the
				// medium before the failure. The head did move, so the
				// event carries the write cost, but the failed write
				// still counts no stats or meter traffic.
				if torn > d.pageSize {
					torn = d.pageSize
				}
				copy(d.pages[id][:torn], data[:torn])
				return d.fail(err, "write", id, torn, d.model.WriteCost)
			}
			return d.fail(err, "write", id, 0, d.model.WriteCost)
		}
	}
	d.stats.PageWrites++
	d.stats.CostUnits += d.model.WriteCost
	d.meter.CountWrite(d.class[id], d.pageSize)
	if d.hook != nil {
		d.hook.StorageEvent(EvWrite, id, d.class[id], d.model.WriteCost)
	}
	copy(d.pages[id], data)
	return nil
}

// WriteInPlace counts a page write and returns the page buffer for the caller
// to mutate directly, avoiding a copy. It is the fast path used by the buffer
// pool when flushing dirty frames it already owns and no injector is armed.
// Injected write faults degrade to clean failures here (nothing is persisted):
// a torn write needs the new image to copy a prefix from, and in-place callers
// have not handed one over yet.
func (d *Device) WriteInPlace(id PageID) ([]byte, error) {
	d.owner.assert("Device")
	if d.crashed {
		return nil, fmt.Errorf("%w: write of page %d", ErrCrash, id)
	}
	if err := d.check(id); err != nil {
		return nil, err
	}
	if d.injector != nil {
		if _, err := d.injector.WriteFault(id, d.pageSize); err != nil {
			return nil, d.fail(err, "write", id, 0, d.model.WriteCost)
		}
	}
	d.stats.PageWrites++
	d.stats.CostUnits += d.model.WriteCost
	d.meter.CountWrite(d.class[id], d.pageSize)
	if d.hook != nil {
		d.hook.StorageEvent(EvWrite, id, d.class[id], d.model.WriteCost)
	}
	return d.pages[id], nil
}

// batchable reports whether a batch of n pages takes the amortized
// charging path. It requires real channel parallelism and a clean device:
// with an injector armed (or the device crashed) batches degrade to the
// sequential per-page path, so fault consultation order, per-fault
// semantics, and the resulting ledgers are identical to unbatched callers.
func (d *Device) batchable(n int) bool {
	return n > 1 && d.model.Channels > 1 && d.injector == nil && !d.crashed
}

// ReadBatch reads every page in ids as one batch submission. On a
// multi-queue medium the whole batch is charged CostModel.BatchCost — the
// service time amortized across the achieved queue depth — instead of n
// sequential reads; per-page EvRead events carry cost shares that sum
// exactly to the batch cost, followed by one BatchHook event carrying the
// achieved depth. On flat media, or whenever an injector is armed, it is
// exactly equivalent to calling Read per page. The returned slices alias
// device memory, like Read. Invalid pages fail the whole batch before any
// traffic is counted.
func (d *Device) ReadBatch(ids []PageID) ([][]byte, error) {
	d.owner.assert("Device")
	if !d.batchable(len(ids)) {
		out := make([][]byte, len(ids))
		for i, id := range ids {
			pg, err := d.Read(id)
			if err != nil {
				return nil, err
			}
			out[i] = pg
		}
		return out, nil
	}
	for _, id := range ids {
		if err := d.check(id); err != nil {
			return nil, err
		}
	}
	n := len(ids)
	cost := d.model.BatchCost(n, false)
	d.stats.PageReads += uint64(n)
	d.stats.CostUnits += cost
	d.stats.Batches++
	d.stats.BatchedPages += uint64(n)
	out := make([][]byte, n)
	share, extra := cost/uint64(n), int(cost%uint64(n))
	for i, id := range ids {
		d.meter.CountRead(d.class[id], d.pageSize)
		if d.hook != nil {
			c := share
			if i < extra {
				c++
			}
			d.hook.StorageEvent(EvRead, id, d.class[id], c)
		}
		out[i] = d.pages[id]
	}
	if d.batchHook != nil {
		d.batchHook.StorageBatch(false, n, d.model.Depth(n), cost)
	}
	return out, nil
}

// WriteBatch writes data[i] to ids[i] as one batch submission, with the same
// charging rule as ReadBatch: amortized at the achieved depth on multi-queue
// media, exactly equivalent to per-page Write calls on flat media or with an
// injector armed. Every data slice must be exactly one page. Invalid pages
// or lengths fail the whole batch before any traffic is counted or any page
// image changes.
func (d *Device) WriteBatch(ids []PageID, data [][]byte) error {
	d.owner.assert("Device")
	if len(ids) != len(data) {
		return fmt.Errorf("storage: batch write of %d pages with %d images", len(ids), len(data))
	}
	if !d.batchable(len(ids)) {
		for i, id := range ids {
			if err := d.Write(id, data[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for i, id := range ids {
		if err := d.check(id); err != nil {
			return err
		}
		if len(data[i]) != d.pageSize {
			return fmt.Errorf("storage: write of %d bytes to page of %d", len(data[i]), d.pageSize)
		}
	}
	n := len(ids)
	cost := d.model.BatchCost(n, true)
	d.stats.PageWrites += uint64(n)
	d.stats.CostUnits += cost
	d.stats.Batches++
	d.stats.BatchedPages += uint64(n)
	share, extra := cost/uint64(n), int(cost%uint64(n))
	for i, id := range ids {
		d.meter.CountWrite(d.class[id], d.pageSize)
		if d.hook != nil {
			c := share
			if i < extra {
				c++
			}
			d.hook.StorageEvent(EvWrite, id, d.class[id], c)
		}
		copy(d.pages[id], data[i])
	}
	if d.batchHook != nil {
		d.batchHook.StorageBatch(true, n, d.model.Depth(n), cost)
	}
	return nil
}

// Clone returns a deep copy of the device — page images, classes, free list,
// cost model, and stats — reporting its traffic to meter (nil selects a
// private one).
// Cloning is how concurrent run cells start from an identical preloaded
// image without sharing mutable state: preload a template once, then each
// cell clones it and owns the copy. The clone has no injector, crash latch,
// or hook, and under -tags racecheck it is unowned until first touched.
func (d *Device) Clone(meter *rum.Meter) *Device {
	if meter == nil {
		meter = &rum.Meter{}
	}
	nd := &Device{
		pageSize: d.pageSize,
		medium:   d.medium,
		meter:    meter,
		model:    d.model,
		stats:    d.stats,
		pages:    make([][]byte, len(d.pages)),
		class:    append([]rum.Class(nil), d.class...),
		live:     append([]bool(nil), d.live...),
		freeList: append([]PageID(nil), d.freeList...),
	}
	for i, pg := range d.pages {
		nd.pages[i] = append([]byte(nil), pg...)
	}
	return nd
}

// Class returns the data class a page was allocated under.
func (d *Device) Class(id PageID) rum.Class {
	if int(id) >= len(d.class) {
		return rum.Aux
	}
	return d.class[id]
}
