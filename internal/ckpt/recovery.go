package ckpt

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mem"
	"repro/internal/storage"
)

// Cluster-level recovery helpers: after a failure, every rank must roll
// back to the same coordinated checkpoint, or messages exchanged between
// ranks would straddle the recovery line. Coordinated checkpoints give
// each global checkpoint the same per-rank sequence number, so the
// recovery line is simply the largest sequence present in the store for
// *all* ranks.

// LatestConsistentSeq scans the store and returns the largest segment
// sequence number persisted by every one of the given ranks — the most
// recent consistent recovery line. ok is false when some rank has no
// segment at all.
func LatestConsistentSeq(store storage.Store, ranks int) (seq uint64, ok bool, err error) {
	keys, err := store.Keys()
	if err != nil {
		return 0, false, err
	}
	// maxSeq[r] is the largest contiguous-or-not sequence seen per rank;
	// consistency needs the *minimum across ranks* of those maxima, and
	// the chosen seq must exist for every rank — with coordinated
	// checkpointing sequences are dense, so min-of-max suffices.
	maxSeq := make(map[int]uint64, ranks)
	seen := make(map[int]bool, ranks)
	for _, k := range keys {
		var rank int
		var s uint64
		if !ParseSegmentKey(k, &rank, &s) {
			continue
		}
		if rank >= ranks {
			continue
		}
		if !seen[rank] || s > maxSeq[rank] {
			maxSeq[rank] = s
		}
		seen[rank] = true
	}
	if len(seen) < ranks {
		return 0, false, nil
	}
	first := true
	for r := 0; r < ranks; r++ {
		if first || maxSeq[r] < seq {
			seq = maxSeq[r]
			first = false
		}
	}
	return seq, true, nil
}

// SegmentKey returns the store key of one rank's segment — the layout
// Checkpointer.Checkpoint writes and ParseSegmentKey parses.
func SegmentKey(rank int, seq uint64) string {
	return fmt.Sprintf("rank%03d/seg%06d", rank, seq)
}

// ParseSegmentKey parses a store key of the form "rankNNN/segNNNNNN",
// the layout written by Checkpointer.Checkpoint. Both numbers are digits
// only, so a parsed rank is never negative. Either out-pointer may be
// nil when the caller only needs the other field (or just the match).
func ParseSegmentKey(key string, rank *int, seq *uint64) bool {
	parts := strings.Split(key, "/")
	if len(parts) != 2 || !strings.HasPrefix(parts[0], "rank") || !strings.HasPrefix(parts[1], "seg") {
		return false
	}
	r, err := strconv.ParseUint(strings.TrimPrefix(parts[0], "rank"), 10, strconv.IntSize-1)
	if err != nil {
		return false
	}
	s, err := strconv.ParseUint(strings.TrimPrefix(parts[1], "seg"), 10, 64)
	if err != nil {
		return false
	}
	if rank != nil {
		*rank = int(r)
	}
	if seq != nil {
		*seq = s
	}
	return true
}

// Prune deletes segments that can no longer participate in any restore:
// everything below each rank's newest chain base (the epoch of its
// latest segment). Restores target the latest consistent line or later,
// and every chain is self-contained from its base full segment, so older
// epochs are garbage. It returns the number of segments deleted and the
// bytes reclaimed.
func Prune(store storage.Store, ranks int) (deleted int, reclaimed uint64, err error) {
	keys, err := store.Keys()
	if err != nil {
		return 0, 0, err
	}
	// Find each rank's newest segment, then its epoch.
	newest := make(map[int]uint64, ranks)
	seen := make(map[int]bool, ranks)
	for _, k := range keys {
		var rank int
		var s uint64
		if !ParseSegmentKey(k, &rank, &s) || rank >= ranks {
			continue
		}
		if !seen[rank] || s > newest[rank] {
			newest[rank] = s
		}
		seen[rank] = true
	}
	floor := make(map[int]uint64, ranks)
	for rank := range seen {
		seg, err := LoadSegment(store, rank, newest[rank])
		if err != nil {
			return 0, 0, fmt.Errorf("ckpt: prune: %w", err)
		}
		floor[rank] = seg.Epoch
	}
	for _, k := range keys {
		var rank int
		var s uint64
		if !ParseSegmentKey(k, &rank, &s) || !seen[rank] {
			continue
		}
		if s < floor[rank] {
			data, err := store.Get(k)
			if err != nil {
				return deleted, reclaimed, err
			}
			if err := store.Delete(k); err != nil {
				return deleted, reclaimed, err
			}
			deleted++
			reclaimed += uint64(len(data))
		}
	}
	return deleted, reclaimed, nil
}

// ChainVolume returns the total encoded bytes that a restore of the
// given rank to targetSeq must read: the chain's base full segment plus
// every delta up to the target. Together with a sink's read bandwidth
// this gives the restart-cost term of the efficiency model.
func ChainVolume(store storage.Store, rank int, targetSeq uint64) (uint64, error) {
	target, err := LoadSegment(store, rank, targetSeq)
	if err != nil {
		return 0, err
	}
	var total uint64
	for seq := target.Epoch; seq <= targetSeq; seq++ {
		data, err := store.Get(SegmentKey(rank, seq))
		if err != nil {
			return 0, fmt.Errorf("ckpt: chain segment %d: %w", seq, err)
		}
		total += uint64(len(data))
	}
	return total, nil
}

// RestoreError identifies exactly where a multi-rank restore failed:
// which rank's chain, at which coordinated sequence, and why. Callers
// unwrap the cause with the standard taxonomy — errors.Is(err,
// storage.ErrNotFound) distinguishes a rank whose segment is simply
// missing from errors.Is(err, storage.ErrCorrupt), a segment whose
// bytes failed integrity or decode — and so can report (or route
// around) a torn line precisely instead of guessing from message text.
type RestoreError struct {
	// Rank is the rank whose restore chain failed.
	Rank int
	// Seq is the coordinated recovery line being restored.
	Seq uint64
	// Err is the underlying cause, wrapped for errors.Is/As.
	Err error
}

// Error implements error.
func (e *RestoreError) Error() string {
	return fmt.Sprintf("ckpt: restore rank %d to line %d: %v", e.Rank, e.Seq, e.Err)
}

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *RestoreError) Unwrap() error { return e.Err }

// RestoreAll restores every rank to the given coordinated sequence
// number, returning one fresh address space per rank. Page size is taken
// from rank 0's target segment. Any per-rank failure is returned as a
// *RestoreError naming the rank and sequence that failed, with the
// cause wrapped.
func RestoreAll(store storage.Store, ranks int, seq uint64) ([]*mem.AddressSpace, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("ckpt: RestoreAll with %d ranks", ranks)
	}
	base, err := LoadSegment(store, 0, seq)
	if err != nil {
		return nil, &RestoreError{Rank: 0, Seq: seq, Err: err}
	}
	spaces := make([]*mem.AddressSpace, ranks)
	for r := 0; r < ranks; r++ {
		sp := mem.NewAddressSpace(mem.Config{PageSize: base.PageSize})
		if err := Restore(store, r, seq, sp); err != nil {
			return nil, &RestoreError{Rank: r, Seq: seq, Err: err}
		}
		spaces[r] = sp
	}
	return spaces, nil
}
