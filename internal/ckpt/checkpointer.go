package ckpt

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/ckptspec"
	"repro/internal/des"
	"repro/internal/mem"
	"repro/internal/storage"
)

// Options configures a per-rank Checkpointer.
type Options struct {
	// Rank labels segments and store keys.
	Rank int
	// Store receives encoded segments. Required.
	Store storage.Store
	// Sink models the time cost of persisting segments; the zero value
	// selects the paper's SCSI disk model.
	Sink storage.Model
	// FullEvery forces a full checkpoint every N segments (the first is
	// always full). Zero means only the first segment is full.
	FullEvery int
	// StartSeq is the first segment sequence number this checkpointer
	// writes. After a failure, the recovered run's checkpointers must
	// continue above the old chain (StartSeq = recovery line + 1) so
	// LatestConsistentSeq keeps seeing monotone sequences. The first
	// checkpoint a checkpointer takes is always full regardless of
	// StartSeq — it bases a fresh chain.
	StartSeq uint64
	// TrackCow enables copy-on-write accounting: while a segment is
	// draining to the sink, writes to pages captured in that segment
	// are counted as pre-image copies an overlapped implementation
	// would have to take. Checkpointing mid-burst makes this large;
	// checkpointing between bursts makes it almost zero (§6.2).
	TrackCow bool
	// Compress run-length-encodes page payloads; the sink write time is
	// then charged on the compressed volume. Zero-filled and
	// constant-filled pages — ubiquitous in scientific arrays — shrink
	// dramatically (cf. the checkpoint-size optimisations of [18]).
	Compress bool
	// DedupUnchanged skips incremental pages whose content hash equals
	// the last persisted version of the same page — write-protection
	// flags a page dirty even when it is rewritten with identical
	// values; content hashing removes those false deltas. Full
	// checkpoints never skip, so every restore chain stays
	// self-contained.
	DedupUnchanged bool
}

// Result describes one completed checkpoint.
type Result struct {
	Seq   uint64
	Epoch uint64
	Kind  Kind
	Pages uint64
	// Bytes is the encoded segment size persisted to the store.
	Bytes uint64
	// PageBytes is pages x page size — the payload the IB metric counts.
	PageBytes uint64
	// PayloadBytes is the page-data volume after zero elision and
	// compression — what the sink actually absorbs when Compress is on.
	PayloadBytes uint64
	// DedupSkipped counts dirty pages elided for unchanged content.
	DedupSkipped uint64
	// Duration is the modelled sink write time.
	Duration des.Time
	// CompletedAt is when the segment was fully persisted (overlapped
	// checkpoints only; zero for synchronous ones, which complete at
	// the trigger in simulation terms).
	CompletedAt des.Time
	// ExcludedPages counts dirty pages dropped because their region was
	// unmapped before the checkpoint (memory exclusion).
	ExcludedPages uint64
	// SilentDirtyPages/SilentDirtyBytes report the corruption risk of
	// this checkpoint: pages a Direct-mode NIC dirtied behind the
	// write-fault tracker, which an incremental capture therefore
	// omits. A full checkpoint copies current contents regardless, so
	// it reports zero and absorbs the silent set. Nonzero values mean
	// a restore from this segment's chain replays stale data.
	SilentDirtyPages uint64
	SilentDirtyBytes uint64
}

// Stats aggregates a checkpointer's lifetime counters.
type Stats struct {
	Checkpoints   uint64
	FullPages     uint64
	DeltaPages    uint64
	TotalBytes    uint64
	TotalDuration des.Time
	CowCopyBytes  uint64
	ExcludedPages uint64
	// DedupSkippedPages counts dirty pages dropped because their
	// content was unchanged (Options.DedupUnchanged).
	DedupSkippedPages uint64
	// PayloadBytes is the page-data volume actually persisted after
	// zero elision and compression.
	PayloadBytes uint64
	// SilentDirtyBytes accumulates Result.SilentDirtyBytes: the total
	// volume incremental checkpoints silently omitted.
	SilentDirtyBytes uint64
}

// Checkpointer takes full and incremental checkpoints of one address
// space. It owns a dirty-page view built from write faults, independent of
// (and stackable with) a tracker's.
type Checkpointer struct {
	eng   *des.Engine
	space *mem.AddressSpace
	opts  Options

	dirty    map[*mem.Region]*bitset.Set
	excluded map[*mem.Region]bool
	// dataExcluded regions stay in every segment's region table (a
	// restore recreates them zero-filled) but are never protected or
	// captured: their contents are recomputable per a protection spec.
	dataExcluded map[*mem.Region]bool
	prevF        mem.FaultHandler
	prevM        mem.MapHook
	running      bool

	// Single-entry fault cache, same rationale as the tracker's:
	// consecutive faults repeat the region, so skip the map lookup.
	lastFaultR  *mem.Region
	lastFaultRS *bitset.Set

	seq           uint64
	epoch         uint64
	took          bool // a first (full, chain-basing) checkpoint was taken
	stats         Stats
	excludedAccum uint64
	hashes        map[uint64]uint64 // page addr → last persisted content hash

	// CoW accounting drain state (TrackCow with synchronous
	// checkpoints).
	drainUntil des.Time
	drainSet   map[*mem.Region]*bitset.Set

	// In-flight overlapped checkpoint, if any (see overlap.go).
	inflight *drain

	// encBuf holds the encoding of the segment being persisted. It is
	// reused across lines: Store.Put does not keep its data argument.
	encBuf []byte
}

// encode serialises seg into the checkpointer's reusable buffer, grown
// once to the segment's encoded length when it is too small, and returns
// the encoding with the page payload volume it carries. The returned
// slice is only valid until the next encode.
func (c *Checkpointer) encode(seg *Segment) ([]byte, uint64) {
	if n := seg.encodedLen(c.opts.Compress); cap(c.encBuf) < n {
		c.encBuf = make([]byte, 0, n)
	}
	enc, payload := seg.appendEncode(c.encBuf[:0], c.opts.Compress)
	if !c.opts.Compress {
		payload = uint64(len(seg.Pages)) * seg.PageSize
	}
	return enc, payload
}

// NewCheckpointer creates a checkpointer. Call Start to begin capturing
// dirty pages; the first Checkpoint is always a full one.
func NewCheckpointer(eng *des.Engine, space *mem.AddressSpace, opts Options) (*Checkpointer, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("ckpt: Options.Store is required")
	}
	if opts.Sink == (storage.Model{}) {
		opts.Sink = storage.SCSISink()
	}
	if (opts.Compress || opts.DedupUnchanged) && space.Phantom() {
		return nil, fmt.Errorf("ckpt: compression and dedup need page contents (backed address space)")
	}
	c := &Checkpointer{
		eng:          eng,
		space:        space,
		opts:         opts,
		seq:          opts.StartSeq,
		dirty:        make(map[*mem.Region]*bitset.Set),
		excluded:     make(map[*mem.Region]bool),
		dataExcluded: make(map[*mem.Region]bool),
	}
	if opts.DedupUnchanged {
		c.hashes = make(map[uint64]uint64)
	}
	return c, nil
}

// Exclude marks a region as never checkpointed (bounce buffers and other
// transport scratch space). Call before Start. Excluding a region twice
// is a no-op, and excluded regions vanish from segment region tables —
// a restore does not recreate them.
func (c *Checkpointer) Exclude(r *mem.Region) {
	if r != nil {
		c.excluded[r] = true
	}
}

// ExcludeData marks a region's *contents* as recomputable: the region
// stays in every segment's region table, so a restore recreates it at
// its original address (zero-filled), but its pages are never
// protected, captured, or counted toward a line. This is the runtime
// half of a ckptspec Recomputable classification — callers re-derive
// the contents after a restore (recompute hook) or rely on the kernel
// fully rewriting them before any read. Call before Start; idempotent.
func (c *Checkpointer) ExcludeData(r *mem.Region) {
	if r != nil {
		c.dataExcluded[r] = true
	}
}

// ApplySpec excludes the data of every binding the spec classifies as
// recomputable and returns those bindings, so the caller can run their
// recompute hooks after a restore. Bindings absent from the spec stay
// protected.
func (c *Checkpointer) ApplySpec(spec *ckptspec.Spec, bindings []ckptspec.Binding) []ckptspec.Binding {
	if spec == nil {
		return nil
	}
	ex := spec.Recomputable(bindings)
	for _, b := range ex {
		c.ExcludeData(b.Region)
	}
	return ex
}

// Start protects all data memory and installs the fault/map hooks,
// chaining any previously installed ones.
func (c *Checkpointer) Start() {
	if c.running {
		panic("ckpt: already started")
	}
	c.running = true
	c.prevF = c.space.SetFaultHandler(c.onFault)
	c.prevM = c.space.SetMapHook(c.onMap)
	c.protectAll()
}

// Stop removes the hooks and unprotects memory.
func (c *Checkpointer) Stop() {
	if !c.running {
		return
	}
	c.running = false
	c.space.SetFaultHandler(c.prevF)
	c.space.SetMapHook(c.prevM)
	c.space.UnprotectAllData()
}

// Stats returns a copy of the lifetime counters.
func (c *Checkpointer) Stats() Stats { return c.stats }

// Seq returns the next segment sequence number.
func (c *Checkpointer) Seq() uint64 { return c.seq }

// Rank returns the rank this checkpointer labels its segments with.
func (c *Checkpointer) Rank() int { return c.opts.Rank }

// Store returns the stable-storage backend segments persist to.
func (c *Checkpointer) Store() storage.Store { return c.opts.Store }

// Space returns the address space this checkpointer protects.
func (c *Checkpointer) Space() *mem.AddressSpace { return c.space }

// Rebase realigns the checkpointer after a failed persist: the next
// checkpoint is written at seq and is forced full, basing a fresh
// self-contained chain. A Checkpoint that failed at the store has
// already consumed its dirty set, so continuing incrementally would
// silently drop pages from the chain — re-basing is the only safe
// resumption.
func (c *Checkpointer) Rebase(seq uint64) {
	c.seq = seq
	c.took = false
}

func (c *Checkpointer) protectAll() {
	for _, r := range c.space.Regions() {
		if r.Kind().Checkpointable() && !c.excluded[r] && !c.dataExcluded[r] {
			r.ProtectAll()
		}
	}
}

func (c *Checkpointer) onFault(f mem.Fault) {
	rs := c.lastFaultRS
	if f.Region != c.lastFaultR {
		rs = c.dirty[f.Region]
		if rs == nil {
			rs = &bitset.Set{}
			c.dirty[f.Region] = rs
		}
		c.lastFaultR, c.lastFaultRS = f.Region, rs
	}
	idx := f.Region.PageIndex(f.Page)
	rs.Add(idx)
	f.Region.SetProtected(f.Page, false)
	// Overlapped checkpointing: capture the pre-image of a pending page
	// before the write lands.
	c.overlapFault(f)
	// CoW accounting: a write to a page captured by a still-draining
	// segment forces a pre-image copy in an overlapped implementation.
	if c.opts.TrackCow && c.drainSet != nil {
		if c.eng.Now() >= c.drainUntil {
			c.drainSet = nil
		} else if ds := c.drainSet[f.Region]; ds != nil && ds.Has(idx) {
			ds.Remove(idx) // copy taken once per page per drain
			c.stats.CowCopyBytes += c.space.PageSize()
		}
	}
	if c.prevF != nil {
		c.prevF(f)
	}
}

func (c *Checkpointer) onMap(r *mem.Region, mapped bool) {
	if mapped {
		if c.running && r.Kind().Checkpointable() && !c.excluded[r] && !c.dataExcluded[r] {
			r.ProtectAll()
		}
	} else {
		c.overlapUnmap(r)
		if rs, ok := c.dirty[r]; ok {
			c.excludedAccum += rs.CountBelow(r.Pages())
			delete(c.dirty, r)
		}
		if r == c.lastFaultR {
			c.lastFaultR, c.lastFaultRS = nil, nil
		}
		delete(c.excluded, r)
		delete(c.dataExcluded, r)
		delete(c.drainSet, r)
	}
	if c.prevM != nil {
		c.prevM(r, mapped)
	}
}

// regionTable snapshots the live checkpointable regions.
func (c *Checkpointer) regionTable() []RegionInfo {
	var out []RegionInfo
	for _, r := range c.space.Regions() {
		if r.Kind().Checkpointable() && !c.excluded[r] {
			out = append(out, RegionInfo{Start: r.Start(), Size: r.Size(), Kind: r.Kind()})
		}
	}
	return out
}

// Checkpoint captures a segment — full when due, incremental otherwise —
// persists it to the store and re-protects memory. It returns the
// result including the modelled sink write time.
func (c *Checkpointer) Checkpoint() (Result, error) {
	if !c.running {
		return Result{}, fmt.Errorf("ckpt: checkpointer not started")
	}
	if c.inflight != nil {
		return Result{}, fmt.Errorf("ckpt: overlapped checkpoint %d still draining", c.inflight.seg.Seq)
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
	ps := c.space.PageSize()
	var dedupSkipped uint64
	capture := func(r *mem.Region, idx uint64) {
		rec := PageRecord{Addr: r.PageAddr(idx)}
		if !seg.ContentFree {
			// A view of the live page, not a copy: nothing writes to
			// the space between this capture and the encode below,
			// and seg does not outlive this call.
			rec.Data = r.PeekPage(idx)
			if c.skipUnchanged(kind, rec.Addr, rec.Data) {
				dedupSkipped++
				return
			}
		}
		seg.Pages = append(seg.Pages, rec)
	}
	var silentPages uint64
	switch kind {
	case Full:
		for _, r := range c.space.Regions() {
			if !r.Kind().Checkpointable() || c.excluded[r] || c.dataExcluded[r] {
				continue
			}
			for idx := uint64(0); idx < r.Pages(); idx++ {
				capture(r, idx)
			}
			// A full capture copies current contents, DMA'd or not —
			// the silent set is absorbed into this self-contained base.
			r.ClearSilent()
		}
	case Incremental:
		// Pages the NIC dirtied without faulting are absent from
		// c.dirty: this capture omits them, and a restore through it
		// replays their stale pre-DMA contents. Count them as the
		// segment's corruption risk.
		for _, r := range c.space.Regions() {
			if !r.Kind().Checkpointable() || c.excluded[r] || c.dataExcluded[r] {
				continue
			}
			silentPages += r.SilentPages()
		}
		for r, rs := range c.dirty {
			if r.Dead() {
				delete(c.dirty, r)
				continue
			}
			if c.dataExcluded[r] {
				// Dirtied before ExcludeData: drop, never capture.
				continue
			}
			limit := r.Pages()
			for idx, ok := rs.NextSet(0); ok && idx < limit; idx, ok = rs.NextSet(idx + 1) {
				capture(r, idx)
			}
		}
	}
	// CoW drain window for the next segment's accounting.
	if c.opts.TrackCow {
		c.drainSet = make(map[*mem.Region]*bitset.Set, len(c.dirty))
		for r, rs := range c.dirty {
			c.drainSet[r] = rs.Clone()
		}
	}
	// Reset dirty state and re-protect: the next delta starts now.
	for _, rs := range c.dirty {
		rs.Clear()
	}
	c.protectAll()

	enc, payload := c.encode(seg)
	key := SegmentKey(c.opts.Rank, c.seq)
	if err := c.opts.Store.Put(key, enc); err != nil {
		return Result{}, fmt.Errorf("ckpt: persist %s: %w", key, err)
	}
	// The sink absorbs the raw page volume, or the compressed payload
	// when compression is on (the paper's IB metric is the former).
	durBytes := uint64(len(seg.Pages)) * ps
	if c.opts.Compress {
		durBytes = payload
	}
	res := Result{
		Seq:           c.seq,
		Epoch:         c.epoch,
		Kind:          kind,
		Pages:         uint64(len(seg.Pages)),
		Bytes:         uint64(len(enc)),
		PageBytes:     uint64(len(seg.Pages)) * ps,
		PayloadBytes:  payload,
		DedupSkipped:  dedupSkipped,
		Duration:      c.opts.Sink.WriteTime(durBytes),
		ExcludedPages: c.excludedAccum,

		SilentDirtyPages: silentPages,
		SilentDirtyBytes: silentPages * ps,
	}
	if c.opts.TrackCow {
		c.drainUntil = c.eng.Now() + res.Duration
	}
	c.excludedAccum = 0
	c.seq++
	c.stats.Checkpoints++
	if kind == Full {
		c.stats.FullPages += res.Pages
	} else {
		c.stats.DeltaPages += res.Pages
	}
	c.stats.TotalBytes += res.Bytes
	c.stats.TotalDuration += res.Duration
	c.stats.ExcludedPages += res.ExcludedPages
	c.stats.DedupSkippedPages += dedupSkipped
	c.stats.PayloadBytes += payload
	c.stats.SilentDirtyBytes += res.SilentDirtyBytes
	return res, nil
}

// skipUnchanged implements content deduplication: it records the page's
// content hash and reports whether an incremental capture may elide the
// page because its content is unchanged since it was last persisted.
// Full checkpoints never skip — every chain base is self-contained.
func (c *Checkpointer) skipUnchanged(kind Kind, addr uint64, data []byte) bool {
	if c.hashes == nil {
		return false
	}
	h := pageHash(data, c.space.PageSize())
	prev, seen := c.hashes[addr]
	c.hashes[addr] = h
	return kind == Incremental && seen && prev == h
}

// LoadSegment fetches and decodes one segment of this checkpointer's rank.
// A fetch failure keeps the storage tier's typed cause (ErrNotFound,
// ErrCorrupt, ErrUnavailable, ErrTransient); bytes that fetched but do
// not decode are typed storage.ErrCorrupt, so callers can tell a missing
// segment from a rotten one with errors.Is alone.
func LoadSegment(store storage.Store, rank int, seq uint64) (*Segment, error) {
	data, err := store.Get(SegmentKey(rank, seq))
	if err != nil {
		return nil, err
	}
	seg, err := DecodeSegment(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: segment rank %d seq %d undecodable (%v): %w", rank, seq, err, storage.ErrCorrupt)
	}
	return seg, nil
}

// Restore rebuilds the state captured for rank up to and including
// targetSeq into space. The space must be backed and must contain no
// checkpointable regions (a fresh process image); region layout is taken
// from the target segment and page contents are replayed from the chain's
// base full segment forward, skipping pages whose regions no longer exist
// at the target — rolled-forward memory exclusion.
func Restore(store storage.Store, rank int, targetSeq uint64, space *mem.AddressSpace) error {
	if space.Phantom() {
		return fmt.Errorf("ckpt: cannot restore into a phantom address space")
	}
	for _, r := range space.Regions() {
		if r.Kind().Checkpointable() {
			return fmt.Errorf("ckpt: restore target already has a %v region", r.Kind())
		}
	}
	target, err := LoadSegment(store, rank, targetSeq)
	if err != nil {
		return fmt.Errorf("ckpt: load target: %w", err)
	}
	if target.PageSize != space.PageSize() {
		return fmt.Errorf("ckpt: page size mismatch: segment %d, space %d", target.PageSize, space.PageSize())
	}
	// Recreate the layout of the target segment.
	for _, ri := range target.Regions {
		if _, err := space.MapAt(ri.Start, ri.Size, ri.Kind); err != nil {
			return fmt.Errorf("ckpt: recreate region: %w", err)
		}
	}
	// Replay pages from the epoch base forward.
	for seq := target.Epoch; seq <= targetSeq; seq++ {
		seg := target
		if seq != targetSeq {
			if seg, err = LoadSegment(store, rank, seq); err != nil {
				return fmt.Errorf("ckpt: load chain segment %d: %w", seq, err)
			}
		}
		if seq == target.Epoch && seg.Kind != Full {
			return fmt.Errorf("ckpt: chain base %d is not a full segment", seq)
		}
		if seg.ContentFree {
			return fmt.Errorf("ckpt: segment %d is content-free; cannot restore data", seq)
		}
		for _, p := range seg.Pages {
			r := space.Find(p.Addr)
			if r == nil {
				continue // page's region gone by target time: excluded
			}
			idx := r.PageIndex(p.Addr)
			if idx >= r.Pages() {
				continue
			}
			if p.Data == nil {
				// Zero page: only meaningful if something nonzero
				// was there before, which replay order guarantees
				// is handled by overwriting.
				zero := make([]byte, space.PageSize())
				r.LoadPage(idx, zero)
				continue
			}
			r.LoadPage(idx, p.Data)
		}
	}
	return nil
}
