package ckpt

// Two-phase global checkpoint commit. GlobalCheckpoint persists every
// rank's segment and calls the line good the moment the last Put
// returns — but the Puts model the *start* of the sink writes, and a
// rank dying while its segment drains leaves a line the key space
// advertises and recovery would trust. The DMTCP lineage of
// coordinator-driven checkpointing solves this with prepare/commit:
// ranks write their segments in the prepare phase, ack the coordinator
// when their sink write completes, and only then does the coordinator
// write a small COMMIT marker to the store the caller names (the global
// store, which outlives any one rank). A line without a verified marker
// never existed as far as recovery is concerned, so a mid-checkpoint
// failure — or a refused marker write — aborts the line, deletes the
// prepared segments, and falls back to the previous committed line.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/des"
	"repro/internal/storage"
	"repro/internal/wire"
)

// ErrCommitAborted reports a two-phase global checkpoint rolled back
// after a successful prepare: a rank failure inside the commit window or
// a refused COMMIT-marker write. Distinct from a prepare-phase storage
// refusal, which surfaces as the storage error itself.
var ErrCommitAborted = errors.New("ckpt: global commit aborted")

const (
	commitMagic   = "GCMT"
	commitVersion = 1
	// commitMarkerSize is magic + version + seq + ranks + time.
	commitMarkerSize = 4 + 1 + 8 + 4 + 8
)

// CommitMarker is the durable record that a coordinated line fully
// committed: every rank's prepare acked before it was written.
type CommitMarker struct {
	Seq   uint64
	Ranks int
	At    des.Time
}

// CommitKey returns the store key of seq's COMMIT marker.
func CommitKey(seq uint64) string { return fmt.Sprintf("commit/seq%06d", seq) }

// ParseCommitKey parses a key written by CommitKey; the sequence is
// digits only.
func ParseCommitKey(key string, seq *uint64) bool {
	rest, ok := strings.CutPrefix(key, "commit/seq")
	if !ok {
		return false
	}
	s, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return false
	}
	*seq = s
	return true
}

// EncodeCommitMarker serialises a marker.
func EncodeCommitMarker(m CommitMarker) []byte {
	buf := make([]byte, 0, commitMarkerSize)
	buf = append(buf, commitMagic...)
	buf = append(buf, commitVersion)
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Ranks))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.At))
	return buf
}

// errBadMarker is the class of every commit-marker parse failure.
var errBadMarker = errors.New("ckpt: malformed commit marker")

// DecodeCommitMarker parses a marker, returning a typed error on any
// corruption; it never panics on hostile input.
func DecodeCommitMarker(data []byte) (CommitMarker, error) {
	r := wire.NewReader(data, errBadMarker)
	r.Magic(commitMagic)
	if v := r.U8(); v != commitVersion {
		r.Fail("unsupported version %d", v)
	}
	m := CommitMarker{Seq: r.U64(), Ranks: int(r.U32()), At: des.Time(r.U64())}
	if err := r.Done(); err != nil {
		return CommitMarker{}, err
	}
	return m, nil
}

// pendingCommit is one in-flight prepare/commit round.
type pendingCommit struct {
	g       GlobalResult
	markers storage.Store
	acks    int
	ackEvs  []des.Event
	done    func(GlobalResult, error)
	aborted bool
}

// PendingSeq reports the sequence of an in-flight two-phase round.
func (co *Coordinator) PendingSeq() (uint64, bool) {
	if co.pending == nil {
		return 0, false
	}
	return co.pending.g.Seq, true
}

// PendingLastAck reports the virtual time the in-flight two-phase
// round's final prepare ack is scheduled for — the earliest instant the
// COMMIT marker could be written. A fault injector that wants to land a
// crash *inside* the commit window (after prepare started, before the
// marker can exist) aims strictly before this time.
func (co *Coordinator) PendingLastAck() (des.Time, bool) {
	if co.pending == nil {
		return 0, false
	}
	var last des.Time
	for _, ev := range co.pending.ackEvs {
		if ev.Time() > last {
			last = ev.Time()
		}
	}
	return last, true
}

// BeginTwoPhase starts a prepare/commit global checkpoint. The prepare
// phase writes every rank's segment now; rank i's ack arrives at its
// sink write time plus ackDelay (the coordination-message cost); once
// all acks are in, the coordinator writes the COMMIT marker to markers
// and done runs with the aggregate result, at the commit's virtual
// completion time.
//
// Failure paths, all of which leave no trace recovery could trust:
//   - a prepare-phase Put refused by storage → segments of this seq are
//     deleted and done receives the storage error directly;
//   - a refused marker write, or an external AbortPending (rank death
//     inside the window) → segments deleted, no marker, done receives an
//     ErrCommitAborted-wrapped error.
func (co *Coordinator) BeginTwoPhase(markers storage.Store, ackDelay des.Time, done func(GlobalResult, error)) {
	if co.pending != nil {
		panic(fmt.Sprintf("ckpt: two-phase commit %d already in flight", co.pending.g.Seq))
	}
	if done == nil {
		done = func(GlobalResult, error) {}
	}
	g, err := co.capture()
	if err != nil {
		co.deleteLine(g.Seq)
		done(GlobalResult{}, err)
		return
	}
	p := &pendingCommit{g: g, markers: markers, done: done}
	co.pending = p
	for _, res := range g.PerRank {
		p.ackEvs = append(p.ackEvs, co.eng.After(res.Duration+ackDelay, func() { co.onAck(p) }))
	}
}

// onAck records one rank's prepare acknowledgement; the last ack writes
// the COMMIT marker.
func (co *Coordinator) onAck(p *pendingCommit) {
	if p.aborted {
		return
	}
	p.acks++
	if p.acks < len(co.cps) {
		return
	}
	marker := CommitMarker{Seq: p.g.Seq, Ranks: len(co.cps), At: co.eng.Now()}
	if err := p.markers.Put(CommitKey(p.g.Seq), EncodeCommitMarker(marker)); err != nil {
		co.abortPending(p, fmt.Errorf("ckpt: seq %d commit marker refused (%v): %w", p.g.Seq, err, ErrCommitAborted))
		return
	}
	co.pending = nil
	co.results = append(co.results, p.g)
	p.done(p.g, nil)
}

// AbortPending rolls back an in-flight two-phase round from outside —
// the supervisor calls it when a rank dies inside the commit window. It
// reports whether there was a round to abort.
func (co *Coordinator) AbortPending(reason error) bool {
	p := co.pending
	if p == nil {
		return false
	}
	if reason == nil {
		reason = fmt.Errorf("ckpt: seq %d externally aborted: %w", p.g.Seq, ErrCommitAborted)
	} else {
		reason = fmt.Errorf("ckpt: seq %d: %v: %w", p.g.Seq, reason, ErrCommitAborted)
	}
	co.abortPending(p, reason)
	return true
}

// abortPending tears down an in-flight round: cancel its events, delete
// the prepared segments (no marker was ever written, and without their
// data the key space cannot even claim the line), and report the cause.
func (co *Coordinator) abortPending(p *pendingCommit, reason error) {
	if p.aborted {
		return
	}
	p.aborted = true
	for _, ev := range p.ackEvs {
		ev.Cancel()
	}
	co.deleteLine(p.g.Seq)
	co.pending = nil
	p.done(GlobalResult{}, reason)
}

// deleteLine removes every rank's segment at seq through that rank's own
// store (best effort — a decayed store may refuse; the absent COMMIT
// marker alone already keeps recovery away from the line).
func (co *Coordinator) deleteLine(seq uint64) {
	for _, c := range co.cps {
		_ = c.Store().Delete(SegmentKey(c.Rank(), seq))
	}
}

// VerifyCommittedLine checks that seq has a readable, well-formed COMMIT
// marker for the given rank count and that every rank's chain verifies
// end to end — the two-phase trust rule.
func VerifyCommittedLine(store storage.Store, ranks int, seq uint64) error {
	data, err := store.Get(CommitKey(seq))
	if err != nil {
		return fmt.Errorf("ckpt: line %d: commit marker: %w", seq, err)
	}
	m, err := DecodeCommitMarker(data)
	if err != nil {
		return fmt.Errorf("ckpt: line %d: %w", seq, err)
	}
	if m.Seq != seq || m.Ranks != ranks {
		return fmt.Errorf("ckpt: line %d: marker labeled seq %d ranks %d", seq, m.Seq, m.Ranks)
	}
	return VerifyLine(store, ranks, seq)
}

// MarkerSeqs lists, newest first, the sequences whose COMMIT-marker keys
// the store holds — what the key space claims committed, before any
// marker or segment is read.
func MarkerSeqs(store storage.Store) ([]uint64, error) {
	keys, err := store.Keys()
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, k := range keys {
		var s uint64
		if ParseCommitKey(k, &s) {
			seqs = append(seqs, s)
		}
	}
	slices.SortFunc(seqs, func(a, b uint64) int { return cmp.Compare(b, a) })
	return seqs, nil
}

// LatestCommittedSeq returns the newest line recovery may trust under
// two-phase commit: a sequence with a verified COMMIT marker whose every
// chain verifies. Lines with damaged or missing markers are skipped, not
// errors; ok is false when no committed line survives.
func LatestCommittedSeq(store storage.Store, ranks int) (seq uint64, ok bool, err error) {
	if ranks <= 0 {
		return 0, false, nil
	}
	candidates, err := MarkerSeqs(store)
	if err != nil {
		return 0, false, err
	}
	for _, s := range candidates {
		if VerifyCommittedLine(store, ranks, s) == nil {
			return s, true, nil
		}
	}
	return 0, false, nil
}
