package experiments

import (
	"fmt"
	"strings"

	"repro/internal/autonomic"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/storage"
)

// A15: cluster-fault ablation. A14 dropped the stable-storage
// assumption; this experiment drops the stable-*cluster* one. The same
// supervised Jacobi run executes over a flaky interconnect (seeded
// per-message loss, duplication and jitter), failures are found by a
// gossip heartbeat detector instead of an oracle, and every coordinated
// checkpoint goes through the two-phase prepare/commit protocol. The
// grid sweeps message-loss rate × heartbeat period × checkpoint
// timeslice and reports what cluster-level fault tolerance costs: the
// measured detection-latency distribution, loss-induced false
// suspicions, commits aborted by mid-checkpoint deaths, and the
// end-to-end efficiency — all bit-reproducible per seed.

// ClusterRow is one cell of the A15 grid, aggregated over the seed
// sweep.
type ClusterRow struct {
	// LossRate is the per-message drop probability of the interconnect;
	// Period is the heartbeat gossip period; CkptEvery the checkpoint
	// timeslice in iterations.
	LossRate  float64
	Period    des.Time
	CkptEvery int
	// Runs and Completed count the seed sweep.
	Runs, Completed int
	// BitExact reports whether every completed run reproduced the
	// failure-free reference checksum.
	BitExact bool
	// MeanEfficiency averages end-to-end efficiency over completed runs.
	MeanEfficiency float64
	// Failures and Recoveries sum node deaths and completed recoveries.
	Failures, Recoveries int
	// AbortedCommits sums two-phase rounds rolled back by a death inside
	// the commit window (or a refused marker write).
	AbortedCommits int
	// MeanDetect and MaxDetect summarise the measured detection-latency
	// distribution across all heartbeat-detected failures.
	MeanDetect, MaxDetect des.Time
	// FalseSuspicions sums loss-induced suspicions of live peers.
	FalseSuspicions int
}

// clusterBaseConfig is the supervised run every cell repeats. The slow
// sink widens each commit window to ~0.2 s so seeded failures genuinely
// land inside two-phase rounds.
func clusterBaseConfig() autonomic.Config {
	return autonomic.Config{
		Ranks:           4,
		Nx:              32,
		RowsPerRank:     8,
		Boundary:        9,
		Iterations:      40,
		ComputeTime:     200 * des.Millisecond,
		MTBF:            3 * des.Second,
		RestartOverhead: 500 * des.Millisecond,
		Sink:            storage.Model{Name: "nfs-class", Latency: 5 * des.Millisecond, Bandwidth: 2e4},
	}
}

// clusterGrid returns the A15 sweep: loss rate × heartbeat period ×
// checkpoint timeslice.
func clusterGrid() (loss []float64, periods []des.Time, slices []int) {
	return []float64{0, 0.05, 0.15},
		[]des.Time{20 * des.Millisecond, 80 * des.Millisecond},
		[]int{5, 10}
}

// FaultyClusterAblation runs the A15 grid over the given failure seeds
// (nil → a default sweep of three). Every run uses the heartbeat
// detector and two-phase commit; the loss axis also drives proportional
// duplication and delay jitter.
func FaultyClusterAblation(seeds []uint64) ([]ClusterRow, error) {
	if len(seeds) == 0 {
		seeds = []uint64{3, 5, 9}
	}
	// Ground truth: same computation, no failures, clean network.
	clean := clusterBaseConfig()
	clean.CkptEvery = 5
	clean.MTBF = 0
	ref, err := autonomic.Run(clean)
	if err != nil {
		return nil, err
	}

	loss, periods, slices := clusterGrid()
	var rows []ClusterRow
	for _, lr := range loss {
		for _, period := range periods {
			for _, every := range slices {
				row := ClusterRow{LossRate: lr, Period: period, CkptEvery: every, BitExact: true}
				var effSum float64
				var latSum des.Time
				var latN int
				for _, seed := range seeds {
					cfg := clusterBaseConfig()
					cfg.CkptEvery = every
					cfg.Seed = seed
					cfg.TwoPhaseCommit = true
					cfg.HeartbeatPeriod = period
					if lr > 0 {
						cfg.NetFaults = &mpi.NetFaultConfig{
							Seed:      seed*131 + 17,
							DropRate:  lr,
							DupRate:   lr / 5,
							JitterMax: 200 * des.Microsecond,
						}
					}
					row.Runs++
					rep, err := autonomic.Run(cfg)
					if err != nil || !rep.Completed {
						continue
					}
					row.Completed++
					effSum += rep.Efficiency
					row.Failures += rep.Failures
					row.Recoveries += rep.Recoveries
					row.AbortedCommits += rep.AbortedCommits
					row.FalseSuspicions += rep.FalseSuspicions
					for _, l := range rep.DetectionLatencies {
						latSum += l
						latN++
						if l > row.MaxDetect {
							row.MaxDetect = l
						}
					}
					if rep.Checksum != ref.Checksum {
						row.BitExact = false
					}
				}
				if row.Completed > 0 {
					row.MeanEfficiency = effSum / float64(row.Completed)
				} else {
					row.BitExact = false
				}
				if latN > 0 {
					row.MeanDetect = latSum / des.Time(latN)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FormatCluster renders the A15 rows as a text table.
func FormatCluster(rows []ClusterRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %8s %5s %6s %6s %6s %5s %5s %6s %9s %9s %7s\n",
		"loss%", "hb", "every", "done", "exact", "eff%", "fail", "recov", "abort", "detect~", "detect^", "falsus")
	for _, r := range rows {
		exact := "no"
		if r.BitExact {
			exact = "yes"
		}
		fmt.Fprintf(&b, "%6.1f %8v %5d %4d/%-2d %6s %6.1f %5d %5d %6d %9v %9v %7d\n",
			r.LossRate*100, r.Period, r.CkptEvery, r.Completed, r.Runs, exact,
			r.MeanEfficiency*100, r.Failures, r.Recoveries, r.AbortedCommits,
			r.MeanDetect, r.MaxDetect, r.FalseSuspicions)
	}
	return b.String()
}
