package harness

import (
	"context"
	"fmt"
	"strings"

	"vcfr/internal/cpu"
	"vcfr/internal/workloads"
)

// The helpers below are shared by every campaign built on the Runner (the
// fault, attack and multicore packages). Each campaign keeps its own flat
// Config; these fill and check the fields all of them have in common.

// CampaignWorkloads is the canonical campaign workload set: three small,
// behaviorally distinct SPEC analogs. xalan is the one analog that executes
// register-indirect transfers early and spans several text pages; sjeng adds
// deep call/return activity; bzip2 is the branchy sequential case.
func CampaignWorkloads() []string { return []string{"bzip2", "sjeng", "xalan"} }

// CampaignDefaults fills the zero values of the fields every campaign config
// shares: CampaignWorkloads, all three modes, seed 42, scale 1, spread 8 and
// a 25000-instruction cap.
func CampaignDefaults(names *[]string, modes *[]cpu.Mode, seed *int64, scale, spread *int, maxInsts *uint64) {
	if len(*names) == 0 {
		*names = CampaignWorkloads()
	}
	if len(*modes) == 0 {
		*modes = cpu.AllModes()
	}
	if *seed == 0 {
		*seed = 42
	}
	if *scale <= 0 {
		*scale = 1
	}
	if *spread <= 0 {
		*spread = 8
	}
	if *maxInsts == 0 {
		*maxInsts = 25000
	}
}

// CheckCampaign validates the workload and mode lists of a campaign config.
// pkg prefixes the mode error, naming the campaign that rejected it.
func CheckCampaign(pkg string, names []string, modes []cpu.Mode) error {
	for _, w := range names {
		if _, err := workloads.ByName(w, 1); err != nil {
			return err
		}
	}
	for _, m := range modes {
		if m < cpu.ModeBaseline || m > cpu.ModeVCFR {
			return fmt.Errorf("%s: unknown mode %v", pkg, m)
		}
	}
	return nil
}

// Layout is one app a campaign prepares: a workload at a layout seed.
type Layout struct {
	Workload string
	Seed     int64
}

// PrepareLayouts prepares each layout, in order, at the campaign's scale and
// spread. errs[i] is layout i's preparation error, or ctx.Err() for every
// layout left unprepared once ctx was cancelled.
func PrepareLayouts(ctx context.Context, scale, spread int, layouts []Layout) (apps []*App, errs []error) {
	apps, errs = make([]*App, len(layouts)), make([]error, len(layouts))
	for i, l := range layouts {
		if errs[i] = ctx.Err(); errs[i] == nil {
			apps[i], errs[i] = Prepare(l.Workload, Config{Scale: scale, Spread: spread, Seed: l.Seed})
		}
	}
	return apps, errs
}

// FirstLine truncates an error message to its first line (panic values
// carry whole stack traces), the form every error row carries.
func FirstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
