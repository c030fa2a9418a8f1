package ckpt

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/mem"
)

// Overlapped (copy-on-write) checkpointing: instead of stopping the
// application while the checkpoint drains to stable storage,
// CheckpointOverlapped snapshots only the dirty-page *set* at the trigger
// and lets the application keep running. Page contents are captured
// lazily:
//
//   - a write fault on a still-pending page captures the page *before*
//     the write proceeds (the simulated MMU delivers faults
//     synchronously ahead of the store, so the copy is exactly the
//     trigger-time pre-image);
//   - pages of a region that is unmapped mid-drain are captured at the
//     unmap, preserving trigger-time state;
//   - everything still pending when the sink finishes draining is
//     captured then — those pages are untouched, so their content still
//     equals the trigger-time content.
//
// The resulting segment is byte-identical to what a stop-and-copy
// checkpoint at the trigger instant would have produced; the test suite
// asserts this under concurrent writes.
//
// This is the mechanism behind the paper's §6.2 placement advice: the
// number of pre-image copies (Result.Pages accounted in
// Stats.CowCopyBytes) is exactly the working-set overlap between the
// drain window and the application's write stream.

// drain is an in-flight overlapped checkpoint.
type drain struct {
	seg     *Segment
	pending map[*mem.Region]*bitset.Set
	done    func(Result, error)
	res     Result
}

// Draining reports whether an overlapped checkpoint is still in flight.
func (c *Checkpointer) Draining() bool { return c.inflight != nil }

// CheckpointOverlapped begins an overlapped checkpoint of the pages
// dirtied since the last checkpoint. It returns immediately; onDone runs
// at the virtual time the segment has been fully captured and persisted.
// Only one overlapped checkpoint may be in flight at a time, and
// overlapped and synchronous checkpoints must not be mixed while
// draining.
func (c *Checkpointer) CheckpointOverlapped(onDone func(Result, error)) error {
	if !c.running {
		return fmt.Errorf("ckpt: checkpointer not started")
	}
	if c.inflight != nil {
		return fmt.Errorf("ckpt: overlapped checkpoint %d still draining", c.inflight.seg.Seq)
	}
	kind := Incremental
	if !c.took || (c.opts.FullEvery > 0 && (c.seq-c.opts.StartSeq)%uint64(c.opts.FullEvery) == 0) {
		kind = Full
		c.epoch = c.seq
	}
	c.took = true
	seg := &Segment{
		Rank:        c.opts.Rank,
		Seq:         c.seq,
		Epoch:       c.epoch,
		Kind:        kind,
		ContentFree: c.space.Phantom(),
		PageSize:    c.space.PageSize(),
		TakenAt:     c.eng.Now(),
		Regions:     c.regionTable(),
	}
	d := &drain{seg: seg, pending: make(map[*mem.Region]*bitset.Set), done: onDone}

	// Snapshot the page *set* (cheap), not the contents.
	var pages uint64
	switch kind {
	case Full:
		for _, r := range c.space.Regions() {
			if !r.Kind().Checkpointable() || c.excluded[r] {
				continue
			}
			s := &bitset.Set{}
			for idx := uint64(0); idx < r.Pages(); idx++ {
				s.Add(idx)
			}
			pages += r.Pages()
			d.pending[r] = s
		}
	case Incremental:
		for r, rs := range c.dirty {
			if r.Dead() {
				delete(c.dirty, r)
				continue
			}
			clone := rs.CloneBelow(r.Pages())
			pages += clone.Count()
			d.pending[r] = clone
		}
	}
	// The next delta starts now: reset dirty state, re-protect.
	for _, rs := range c.dirty {
		rs.Clear()
	}
	c.protectAll()

	d.res = Result{
		Seq:           c.seq,
		Epoch:         c.epoch,
		Kind:          kind,
		Pages:         pages,
		PageBytes:     pages * c.space.PageSize(),
		Duration:      c.opts.Sink.WriteTime(pages * c.space.PageSize()),
		ExcludedPages: c.excludedAccum,
	}
	c.excludedAccum = 0
	c.seq++
	c.inflight = d
	c.eng.After(d.res.Duration, func() { c.finishDrain() })
	return nil
}

// capturePending saves one pending page into the in-flight segment,
// applying content deduplication like the synchronous path.
func (c *Checkpointer) capturePending(d *drain, r *mem.Region, idx uint64) {
	rec := PageRecord{Addr: r.PageAddr(idx)}
	d.pending[r].Remove(idx)
	if !d.seg.ContentFree {
		if pd := r.PeekPage(idx); pd != nil {
			rec.Data = append([]byte(nil), pd...)
		}
		if c.skipUnchanged(d.seg.Kind, rec.Addr, rec.Data) {
			d.res.DedupSkipped++
			return
		}
	}
	d.seg.Pages = append(d.seg.Pages, rec)
}

// overlapFault is called from the main fault handler before the write
// proceeds: a pending page is captured as its pre-image.
func (c *Checkpointer) overlapFault(f mem.Fault) {
	d := c.inflight
	if d == nil {
		return
	}
	rs := d.pending[f.Region]
	if rs == nil {
		return
	}
	idx := f.Region.PageIndex(f.Page)
	if !rs.Has(idx) {
		return
	}
	c.capturePending(d, f.Region, idx)
	c.stats.CowCopyBytes += c.space.PageSize()
}

// overlapUnmap captures the pending pages of a dying region: at trigger
// time the region was mapped, so its state belongs in the checkpoint.
func (c *Checkpointer) overlapUnmap(r *mem.Region) {
	d := c.inflight
	if d == nil {
		return
	}
	rs := d.pending[r]
	if rs == nil {
		return
	}
	for idx, ok := rs.NextSet(0); ok; idx, ok = rs.NextSet(idx + 1) {
		c.capturePending(d, r, idx)
	}
	delete(d.pending, r)
}

// finishDrain captures all still-pending (untouched) pages and persists
// the segment.
func (c *Checkpointer) finishDrain() {
	d := c.inflight
	if d == nil {
		return
	}
	c.inflight = nil
	for r, rs := range d.pending {
		if r.Dead() {
			continue // already captured by overlapUnmap
		}
		// capturePending removes the current element while we iterate,
		// which NextSet tolerates: the cursor never revisits positions
		// at or below the one just captured.
		limit := r.Pages()
		for idx, ok := rs.NextSet(0); ok && idx < limit; idx, ok = rs.NextSet(idx + 1) {
			c.capturePending(d, r, idx)
		}
	}
	enc, payload := c.encode(d.seg)
	key := fmt.Sprintf("rank%03d/seg%06d", c.opts.Rank, d.seg.Seq)
	var err error
	if perr := c.opts.Store.Put(key, enc); perr != nil {
		err = fmt.Errorf("ckpt: persist %s: %w", key, perr)
	}
	d.res.Bytes = uint64(len(enc))
	d.res.PayloadBytes = payload
	d.res.CompletedAt = c.eng.Now()
	c.stats.DedupSkippedPages += d.res.DedupSkipped
	c.stats.PayloadBytes += payload
	c.stats.Checkpoints++
	if d.res.Kind == Full {
		c.stats.FullPages += d.res.Pages
	} else {
		c.stats.DeltaPages += d.res.Pages
	}
	c.stats.TotalBytes += d.res.Bytes
	c.stats.TotalDuration += d.res.Duration
	c.stats.ExcludedPages += d.res.ExcludedPages
	if d.done != nil {
		d.done(d.res, err)
	}
}
