// Package faults injects computer failures and repairs into a
// simulation. The paper's model (Figure 1, §2) assumes every computer is
// always up, so a static allocation computed once by Algorithm 1 stays
// valid forever; this package relaxes that assumption so the simulator
// can answer how gracefully the static policies degrade and how much
// re-solving the allocation over the surviving computers recovers.
//
// Each computer alternates between up and down periods drawn from
// configurable time-between-failure (MTBF) and time-to-repair (MTTR)
// distributions — an alternating renewal process per computer, driven on
// the run's sim.Engine with an independent random stream per computer.
// When a computer fails, the work in progress is handled by a job-fate
// policy (Fate); when it is repaired, held jobs re-enter service. The
// Injector also tracks per-computer time-weighted availability, lost /
// requeued / restarted / resumed job counts, and the total time the
// system spent degraded (at least one computer down).
package faults

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"heterosched/internal/dist"
)

// Fate selects what happens to jobs caught on a computer when it fails.
type Fate int

const (
	// Lost discards jobs in progress at failure time; jobs dispatched to
	// a computer that is already down wait for its repair.
	Lost Fate = iota
	// RestartInPlace holds jobs at the failed computer and restarts them
	// from scratch (full size) when it is repaired.
	RestartInPlace
	// ResumeOnRepair holds jobs at the failed computer and continues
	// them from their remaining demand when it is repaired (e.g. jobs
	// checkpointed to stable storage).
	ResumeOnRepair
	// RequeueToDispatcher sends jobs back to the central scheduler for
	// re-dispatch (restarting from scratch), at most MaxRetries times
	// per job; beyond that the job is lost. Jobs dispatched to a
	// computer that is already down are likewise requeued, modeling
	// connection-refused retries.
	RequeueToDispatcher
)

// String returns the fate mnemonic.
func (f Fate) String() string {
	switch f {
	case Lost:
		return "lost"
	case RestartInPlace:
		return "restart"
	case ResumeOnRepair:
		return "resume"
	case RequeueToDispatcher:
		return "requeue"
	default:
		return fmt.Sprintf("Fate(%d)", int(f))
	}
}

// ParseFate parses a fate mnemonic (as accepted by the CLIs).
func ParseFate(s string) (Fate, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "lost":
		return Lost, nil
	case "restart":
		return RestartInPlace, nil
	case "resume":
		return ResumeOnRepair, nil
	case "requeue":
		return RequeueToDispatcher, nil
	}
	return 0, fmt.Errorf("faults: unknown fate %q (want lost, restart, resume or requeue)", s)
}

// DefaultMaxRetries bounds requeue attempts when Config.MaxRetries is 0.
const DefaultMaxRetries = 3

// Config describes the failure model for one run.
type Config struct {
	// Uptime is the time-between-failures distribution shared by every
	// computer (each samples it from its own stream). Nil — with no
	// per-computer override — disables failure injection entirely.
	Uptime dist.Distribution
	// Downtime is the time-to-repair distribution shared by every
	// computer. Required when failures are enabled.
	Downtime dist.Distribution
	// UptimePer and DowntimePer, when non-empty, override the shared
	// distributions per computer (nil entries fall back to the shared
	// one). Length must equal the computer count.
	UptimePer, DowntimePer []dist.Distribution
	// Fate selects the job-fate policy at failure time.
	Fate Fate
	// MaxRetries bounds re-dispatch attempts per job under
	// RequeueToDispatcher; 0 means DefaultMaxRetries.
	MaxRetries int
	// DetectionLag is the finite delay in seconds between a failure or repair
	// and the scheduler learning about it (health-check interval plus
	// propagation). Zero means instant detection.
	DetectionLag float64
}

// Enabled reports whether the configuration injects any failures.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	if c.Uptime != nil {
		return true
	}
	for _, d := range c.UptimePer {
		if d != nil {
			return true
		}
	}
	return false
}

// Validate reports configuration errors for a system of n computers.
func (c *Config) Validate(n int) error {
	if !c.Enabled() {
		return nil
	}
	if len(c.UptimePer) != 0 && len(c.UptimePer) != n {
		return fmt.Errorf("faults: UptimePer has %d entries for %d computers", len(c.UptimePer), n)
	}
	if len(c.DowntimePer) != 0 && len(c.DowntimePer) != n {
		return fmt.Errorf("faults: DowntimePer has %d entries for %d computers", len(c.DowntimePer), n)
	}
	for i := 0; i < n; i++ {
		if c.uptimeFor(i) == nil {
			return fmt.Errorf("faults: computer %d has no uptime distribution", i)
		}
		if c.downtimeFor(i) == nil {
			return fmt.Errorf("faults: computer %d has no downtime distribution", i)
		}
	}
	if c.Fate < Lost || c.Fate > RequeueToDispatcher {
		return fmt.Errorf("faults: unknown fate %v", c.Fate)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("faults: MaxRetries %d negative", c.MaxRetries)
	}
	if c.DetectionLag < 0 || math.IsNaN(c.DetectionLag) || math.IsInf(c.DetectionLag, 0) {
		return fmt.Errorf("faults: DetectionLag %v invalid", c.DetectionLag)
	}
	return nil
}

// uptimeFor returns computer i's time-between-failures distribution.
func (c *Config) uptimeFor(i int) dist.Distribution {
	if i < len(c.UptimePer) && c.UptimePer[i] != nil {
		return c.UptimePer[i]
	}
	return c.Uptime
}

// downtimeFor returns computer i's time-to-repair distribution.
func (c *Config) downtimeFor(i int) dist.Distribution {
	if i < len(c.DowntimePer) && c.DowntimePer[i] != nil {
		return c.DowntimePer[i]
	}
	return c.Downtime
}

// maxRetries resolves the effective requeue bound.
func (c *Config) maxRetries() int {
	if c.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	return c.MaxRetries
}

// ErrNoFailureModel is returned by PlannedAvailability when the
// configuration disables failures (availability is trivially 1).
var ErrNoFailureModel = errors.New("faults: no failure model configured")

// PlannedAvailability returns the steady-state availability the
// configured renewal processes imply for each of n computers:
// A_i = MTBF_i / (MTBF_i + MTTR_i), using the distributions' analytic
// means. An infinite MTBF yields availability 1. This is the vector the
// availability-aware allocator (alloc.AvailabilityAware) plans against.
func (c *Config) PlannedAvailability(n int) ([]float64, error) {
	if !c.Enabled() {
		return nil, ErrNoFailureModel
	}
	if err := c.Validate(n); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		mtbf := c.uptimeFor(i).Mean()
		mttr := c.downtimeFor(i).Mean()
		switch {
		case math.IsInf(mtbf, 1):
			out[i] = 1
		case !(mtbf > 0) || !(mttr >= 0) || math.IsInf(mttr, 1):
			return nil, fmt.Errorf("faults: computer %d has unusable MTBF %v / MTTR %v", i, mtbf, mttr)
		default:
			out[i] = mtbf / (mtbf + mttr)
		}
	}
	return out, nil
}
