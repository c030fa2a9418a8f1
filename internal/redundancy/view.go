package redundancy

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Recovery levels, indexing the per-level counters in ViewStats and the
// autonomic Report.
const (
	LevelLocal  = 0 // L1: the rank's own local store
	LevelParity = 1 // L2: rebuilt from surviving parity shards
	LevelGlobal = 2 // L3: the global store of last resort
	LevelCount  = 3
)

// LevelName names a recovery level for reports.
func LevelName(l int) string {
	switch l {
	case LevelLocal:
		return "L1-local"
	case LevelParity:
		return "L2-parity"
	case LevelGlobal:
		return "L3-global"
	}
	return fmt.Sprintf("level(%d)", l)
}

// ViewStats accounts the tiered read path of one RecoveryView.
type ViewStats struct {
	// LevelReads and LevelBytes count successful Gets per level.
	LevelReads [LevelCount]uint64
	LevelBytes [LevelCount]uint64
	// Rebuilds counts successful L2 reconstructions (one per parity
	// group × line rebuilt, however many segments it recovered).
	Rebuilds uint64
	// RebuildFailures counts L2 attempts that could not reconstruct —
	// too many shards lost, or a corrupt shard detected by CRC.
	RebuildFailures uint64
	// CorruptShards counts parity frames rejected by the frame codec
	// during rebuilds.
	CorruptShards uint64
	// RepairedBack counts rebuilt segments written back to the owning
	// rank's L1 (read-repair), RepairWriteFailures the write-backs that
	// failed.
	RepairedBack        uint64
	RepairWriteFailures uint64
}

// RecoveryView is the tiered read path over a Hierarchy: it implements
// storage.Store so the existing recovery machinery — VerifyChain,
// LatestVerifiableSeq, ChainVolume, RestoreAll — transparently reads
// L1 first, then rebuilds lost segments from surviving parity shards,
// then falls back to L3. Every level is integrity-checked (segment
// decode at L1, frame + member CRCs at L2), so a corrupt copy degrades
// the read to the next tier instead of surfacing torn bytes.
//
// The view is read-only and caches L2 rebuilds: a segment rebuilt once
// is served from the cache (still accounted to L2) for the rest of the
// recovery, so repeated chain walks don't re-run the codec. Use a fresh
// view per recovery.
type RecoveryView struct {
	h       *Hierarchy
	rebuilt map[string][]byte
	stats   ViewStats
}

// NewView returns a fresh tiered read view over the hierarchy.
func (h *Hierarchy) NewView() *RecoveryView {
	return &RecoveryView{h: h, rebuilt: make(map[string][]byte)}
}

// Stats returns a copy of the view's per-level accounting.
func (v *RecoveryView) Stats() ViewStats { return v.stats }

// Put implements storage.Store; the view is read-only.
func (v *RecoveryView) Put(key string, data []byte) error {
	return fmt.Errorf("redundancy: recovery view is read-only (put %q): %w", key, storage.ErrUnavailable)
}

// Delete implements storage.Store; the view is read-only.
func (v *RecoveryView) Delete(key string) error {
	return fmt.Errorf("redundancy: recovery view is read-only (delete %q): %w", key, storage.ErrUnavailable)
}

func (v *RecoveryView) account(level int, n int) {
	v.stats.LevelReads[level]++
	v.stats.LevelBytes[level] += uint64(n)
}

// Get implements storage.Store with the tiered read path.
func (v *RecoveryView) Get(key string) ([]byte, error) {
	var rank int
	var seq uint64
	isSeg := ckpt.ParseSegmentKey(key, &rank, &seq)
	if isSeg && rank < len(v.h.local) {
		// Cached L2 rebuilds win over L1 so one recovery attributes a
		// rebuilt segment to the same level on every pass.
		if data, ok := v.rebuilt[key]; ok {
			v.account(LevelParity, len(data))
			return append([]byte(nil), data...), nil
		}
		if data, err := v.h.local[rank].Get(key); err == nil {
			// A local copy that no longer decodes is treated as lost,
			// not trusted: fall through to the rebuild path.
			if _, derr := ckpt.DecodeSegment(data); derr == nil {
				v.account(LevelLocal, len(data))
				return data, nil
			}
		}
		if data, err := v.rebuild(rank, seq, key); err == nil {
			v.account(LevelParity, len(data))
			return data, nil
		}
	}
	data, err := v.h.cfg.Global.Get(key)
	if err != nil {
		return nil, err
	}
	v.account(LevelGlobal, len(data))
	return data, nil
}

// rebuild reconstructs rank's segment at seq from its parity group's
// surviving shards, caches every segment the reconstruction recovered,
// and read-repairs the requested one back to the owner's L1.
func (v *RecoveryView) rebuild(rank int, seq uint64, key string) ([]byte, error) {
	h := v.h
	if h.codec == nil || h.groupOf[rank] < 0 {
		return nil, fmt.Errorf("redundancy: no parity group for rank %d: %w", rank, storage.ErrNotFound)
	}
	gi := h.groupOf[rank]
	g := &h.groups[gi]
	k, m := h.cfg.Scheme.K, h.cfg.Scheme.M

	// Gather parity frames first: they carry the member table (lengths
	// and CRCs) the rebuild is checked against.
	shards := make([][]byte, k+m)
	var ref *ParityFrame
	for j, partner := range g.Partners {
		raw, err := h.local[partner].Get(ParityKey(gi, seq, k+j))
		if err != nil {
			continue
		}
		f, err := ParseParityFrame(raw)
		if err != nil {
			v.stats.CorruptShards++
			continue
		}
		if f.Group != uint32(gi) || f.Seq != seq || f.Shard != k+j || f.K != k || f.M != m {
			v.stats.CorruptShards++
			continue
		}
		shards[k+j] = f.Payload
		if ref == nil {
			ref = f
		}
	}
	if ref == nil {
		v.stats.RebuildFailures++
		return nil, fmt.Errorf("redundancy: no usable parity shard for group %d line %d: %w", gi, seq, storage.ErrNotFound)
	}
	shardLen := len(ref.Payload)

	// Surviving member segments become data shards, padded to the
	// parity length; members whose local copy is missing, mis-sized, or
	// fails its recorded CRC stay nil for the codec to fill.
	for i, member := range g.Members {
		data, err := h.local[member].Get(ckpt.SegmentKey(member, seq))
		if err != nil {
			continue
		}
		mr := ref.Members[i]
		if uint32(len(data)) != mr.Length || wire.CRC32C(data) != mr.CRC || len(data) > shardLen {
			continue
		}
		if len(data) == shardLen {
			shards[i] = data
		} else {
			p := make([]byte, shardLen)
			copy(p, data)
			shards[i] = p
		}
	}
	if err := h.codec.Reconstruct(shards); err != nil {
		v.stats.RebuildFailures++
		return nil, fmt.Errorf("redundancy: rebuild group %d line %d: %w: %w", gi, seq, err, storage.ErrCorrupt)
	}

	// Check every reconstructed member against its recorded CRC before
	// trusting anything: a silently corrupt surviving shard poisons the
	// whole reconstruction, and the member CRCs are how we notice.
	recovered := make(map[string][]byte)
	for i, member := range g.Members {
		mr := ref.Members[i]
		if int(mr.Length) > shardLen {
			v.stats.RebuildFailures++
			return nil, fmt.Errorf("redundancy: member %d length %d exceeds shard length %d: %w", member, mr.Length, shardLen, storage.ErrCorrupt)
		}
		seg := shards[i][:mr.Length]
		if wire.CRC32C(seg) != mr.CRC {
			v.stats.RebuildFailures++
			return nil, fmt.Errorf("redundancy: rebuilt segment for rank %d line %d fails CRC: %w", member, seq, storage.ErrCorrupt)
		}
		recovered[ckpt.SegmentKey(member, seq)] = seg
	}
	v.stats.Rebuilds++
	for rk, seg := range recovered {
		v.rebuilt[rk] = seg
	}

	// Read-repair: the requested segment goes back to its owner's L1 so
	// the next recovery finds it locally. Best effort — a failing L1
	// (e.g. a MirrorStore short of quorum) doesn't fail the read, it
	// just records the miss.
	out := recovered[key]
	if err := h.local[rank].Put(key, out); err != nil {
		v.stats.RepairWriteFailures++
	} else {
		v.stats.RepairedBack++
	}
	return append([]byte(nil), out...), nil
}

// Keys implements storage.Store: the union of every L1's segment keys,
// the segments reconstructible from stored parity frames, and the L3
// keys — i.e. everything the tiered Get could serve.
func (v *RecoveryView) Keys() ([]string, error) {
	seen := make(map[string]bool)
	for _, l := range v.h.local {
		keys, err := l.Keys()
		if err != nil {
			continue
		}
		for _, k := range keys {
			if ckpt.ParseSegmentKey(k, nil, nil) {
				seen[k] = true
				continue
			}
			var gi, shard int
			var seq uint64
			if ParseParityKey(k, &gi, &seq, &shard) && gi < len(v.h.groups) {
				for _, member := range v.h.groups[gi].Members {
					seen[ckpt.SegmentKey(member, seq)] = true
				}
			}
		}
	}
	gkeys, err := v.h.cfg.Global.Keys()
	if err == nil {
		for _, k := range gkeys {
			seen[k] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Size implements storage.Store: total bytes across all tiers.
func (v *RecoveryView) Size() (uint64, error) {
	var total uint64
	for _, l := range v.h.local {
		n, err := l.Size()
		if err != nil && !errors.Is(err, storage.ErrNotFound) {
			continue
		}
		total += n
	}
	if n, err := v.h.cfg.Global.Size(); err == nil {
		total += n
	}
	return total, nil
}
