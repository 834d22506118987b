package main

import (
	"fmt"
	"math"

	"heterosched/internal/alloc"
	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/experiments"
	"heterosched/internal/queueing"
	"heterosched/internal/sched"
)

// checkResult is the per-cell output check: the run succeeded and its
// job-conservation ledger closes (every arrival reached exactly one
// terminal outcome and nothing is left in the system after the drain).
func checkResult(res *cluster.Result, err error) error {
	if err != nil {
		return err
	}
	var sum int64
	for _, n := range res.Outcomes {
		sum += n
	}
	if sum != res.GeneratedJobs {
		return fmt.Errorf("outcomes sum to %d, generated %d", sum, res.GeneratedJobs)
	}
	if res.FinalInSystem != 0 {
		return fmt.Errorf("%d jobs left in the system after the drain", res.FinalInSystem)
	}
	return nil
}

// The analytic oracle: ORAN with Poisson arrivals and exponential sizes
// makes every computer an independent M/M/1-PS queue, so the mean
// response time has the closed form of the paper's equation (3). Its
// seeds and length are fixed (they are the cell of the repository's
// oracle test at rho = 0.7): with seeds drawn from the workload seed, a
// correct simulator would still miss a 95% interval one time in twenty.
const (
	oracleRho      = 0.7
	oracleReps     = 10
	oracleDuration = 1e4
	oracleSeed     = 1034
)

// checkOracle runs the oracle replications serially and reports a miss
// of the closed form by more than the replications' 95% CI.
func checkOracle() error {
	speeds := experiments.Table1Speeds
	alpha, err := alloc.Optimized{}.Allocate(speeds, oracleRho)
	if err != nil {
		return err
	}
	sys, err := queueing.SystemFromUtilization(speeds, 1.0, oracleRho)
	if err != nil {
		return err
	}
	want, err := sys.MeanResponseTime(alpha)
	if err != nil {
		return err
	}
	runs := make([]*cluster.Result, oracleReps)
	for r := range runs {
		cfg := cluster.Config{
			Speeds:              speeds,
			Utilization:         oracleRho,
			JobSize:             dist.NewExponential(1.0),
			ExponentialArrivals: true,
			Duration:            oracleDuration,
			Seed:                oracleSeed + uint64(r),
		}
		res, err := cluster.Run(cfg, sched.ORAN())
		if err := checkResult(res, err); err != nil {
			return fmt.Errorf("oracle replication %d: %w", r, err)
		}
		runs[r] = res
	}
	agg, err := cluster.Aggregate(runs)
	if err != nil {
		return err
	}
	got := agg.MeanResponseTime
	if diff := math.Abs(got.Mean - want); !(diff <= got.CI95) {
		return fmt.Errorf("oracle: simulated T = %.5g ± %.2g excludes analytic %.5g", got.Mean, got.CI95, want)
	}
	return nil
}
