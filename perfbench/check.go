package main

import (
	"errors"
	"fmt"
	"math"
)

// Output checks. Each one first rejects a reference or a run that has
// nothing to compare — no digests, no injected failure, no rebuild — so
// a broken workload cannot pass by producing empty outputs.

// checkDigests reports whether got reproduces the reference digests of
// every sweep cell.
func checkDigests(ref, got []uint64) error {
	if len(ref) == 0 {
		return errors.New("reference has no digests")
	}
	if len(got) != len(ref) {
		return fmt.Errorf("%d digests, reference has %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			return fmt.Errorf("cell %d digest %016x, reference %016x", i, got[i], ref[i])
		}
	}
	return nil
}

// checkSupervised reports whether an injected run finished in the
// bit-identical state of its failure-free reference after at least one
// injected failure, restoring the newest committed line every time. A
// multi-level run must also have rebuilt from parity, with no rebuild
// failing, and read nothing from the global store. A final state that
// is bit-exact does not prove these: a restore that falls back to an
// older line recomputes the same digests from further back.
func checkSupervised(ref, got supervisedOutput, multilevel bool) error {
	switch {
	case !ref.Completed || len(ref.Digests) == 0:
		return errors.New("reference run did not complete")
	case !got.Completed:
		return errors.New("injected run did not complete")
	case got.Failures == 0:
		return errors.New("no failure was injected")
	case got.Degraded != 0:
		return fmt.Errorf("%d recoveries fell back to an older line", got.Degraded)
	case math.Float64bits(got.Checksum) != math.Float64bits(ref.Checksum):
		return fmt.Errorf("checksum %v, reference %v", got.Checksum, ref.Checksum)
	}
	if err := checkDigests(ref.Digests, got.Digests); err != nil {
		return fmt.Errorf("space %w", err)
	}
	if multilevel {
		if got.L3ReadBytes != 0 {
			return fmt.Errorf("recovery read %d bytes from L3", got.L3ReadBytes)
		}
		if got.Rebuilds == 0 {
			return errors.New("no parity rebuild happened")
		}
		if got.RebuildFailures != 0 {
			return fmt.Errorf("%d parity rebuilds failed", got.RebuildFailures)
		}
	}
	return nil
}

// tally counts timed runs and the ones that errored or failed a check.
type tally struct {
	attempted, failed int
	first             error
}

// add records one run's verdict: err is the run's own error or its
// failed output check.
func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
}

// okFrac is the share of attempted runs that passed.
func (t *tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}
