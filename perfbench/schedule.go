package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/des"
)

// The benchmark's fault inputs are chaos schedule texts generated from
// the workload seed. The program under test only ever sees the text: it
// parses and compiles it exactly as a user-written schedule. The number
// of faults is fixed per workload so every seed injects the same load;
// the seed moves where in the run each fault lands.

// serviceSchedule returns node crashes spread over [lo, hi) plus one
// storage-brownout window. Each crash owns an equal slice of the span,
// draws its window inside that slice and strikes inside the first
// two-phase commit that opens there, so every crash aborts a commit and
// rolls back one full checkpoint interval whatever the seed.
func serviceSchedule(seed uint64, lo, hi des.Time, crashes int) string {
	rng := rand.New(rand.NewPCG(seed, 0x5E41CE))
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench supervised-2pc-service seed %d\n", seed)
	slot := (hi - lo) / des.Time(crashes)
	for i := 0; i < crashes; i++ {
		from := lo + des.Time(i)*slot + drawIn(rng, slot/4)
		fmt.Fprintf(&b, "commit-crash at %s..%s\n", ms(from), ms(from+slot/2))
	}
	from := lo + drawIn(rng, (hi-lo)/2)
	rate := 0.2 + 0.1*float64(rng.IntN(3))
	fmt.Fprintf(&b, "storage-brownout at %s..%s rate %.1f\n", ms(from), ms(from+(hi-lo)/4), rate)
	return b.String()
}

// domainSchedule returns one domain-crash per slice of [lo, hi), each
// aimed at a different failure domain in a seed-shuffled order.
func domainSchedule(seed uint64, lo, hi des.Time, domains, crashes int) string {
	rng := rand.New(rand.NewPCG(seed, 0xD0CA1))
	order := rng.Perm(domains)
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench multilevel-rs-recovery seed %d\n", seed)
	slot := (hi - lo) / des.Time(crashes)
	for i := 0; i < crashes; i++ {
		from := lo + des.Time(i)*slot + drawIn(rng, slot/4)
		fmt.Fprintf(&b, "domain-crash at %s..%s domain d%d\n", ms(from), ms(from+slot/2), order[i%domains])
	}
	return b.String()
}

// drawIn returns a uniform draw in [0, span), rounded to whole
// milliseconds so the text round-trips exactly.
func drawIn(rng *rand.Rand, span des.Time) des.Time {
	n := int64(span / des.Millisecond)
	if n <= 0 {
		return 0
	}
	return des.Time(rng.Int64N(n)) * des.Millisecond
}

// ms spells a virtual time in whole milliseconds, the schedule
// language's duration syntax.
func ms(t des.Time) string { return fmt.Sprintf("%dms", t/des.Millisecond) }
