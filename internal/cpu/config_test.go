package cpu

import (
	"fmt"
	"strings"
	"testing"
)

// TestValidateRejections pins Config.Validate's rejection messages. Validate
// is the one place machine-config bounds are checked — vcfrsim validates its
// flags through it and the vcfrd service validates request bodies through it
// — so these messages are user-facing on both surfaces and must not drift.
func TestValidateRejections(t *testing.T) {
	mod := func(f func(*Config)) Config {
		c := DefaultConfig(ModeVCFR)
		f(&c)
		return c
	}
	tests := []struct {
		name string
		cfg  Config
		want string // exact error message; "" = must pass
	}{
		{"default-baseline", DefaultConfig(ModeBaseline), ""},
		{"default-naive", DefaultConfig(ModeNaiveILR), ""},
		{"default-vcfr", DefaultConfig(ModeVCFR), ""},
		{"zero-mode", mod(func(c *Config) { c.Mode = 0 }),
			"cpu: invalid mode 0"},
		{"mode-out-of-range", mod(func(c *Config) { c.Mode = 7 }),
			"cpu: invalid mode 7"},
		{"gshare-zero", mod(func(c *Config) { c.GshareBits = 0 }),
			"cpu: gshare bits 0 out of range"},
		{"gshare-too-wide", mod(func(c *Config) { c.GshareBits = 25 }),
			"cpu: gshare bits 25 out of range"},
		{"btb-zero", mod(func(c *Config) { c.BTBEntries = 0 }),
			"cpu: BTB 0 entries / 4 ways invalid"},
		{"btb-uneven-ways", mod(func(c *Config) { c.BTBEntries = 500; c.BTBAssoc = 3 }),
			"cpu: BTB 500 entries / 3 ways invalid"},
		{"ras-zero", mod(func(c *Config) { c.RASDepth = 0 }),
			"cpu: RAS depth 0 invalid"},
		{"itlb-zero", mod(func(c *Config) { c.ITLBEntries = 0 }),
			"cpu: iTLB 0 entries / walk 30 invalid"},
		{"negative-walk", mod(func(c *Config) { c.PageWalkLatency = -1 }),
			"cpu: iTLB 64 entries / walk -1 invalid"},
		{"split-odd", mod(func(c *Config) { c.DRCSplit = true; c.DRCEntries = 127 }),
			"cpu: split DRC needs an even entry count, got 127"},
		{"drc2-negative", mod(func(c *Config) { c.DRC2Entries = -1 }),
			"cpu: DRC2 -1 entries / 3 latency invalid"},
		{"drc2-no-latency", mod(func(c *Config) { c.DRC2Entries = 64; c.DRC2Latency = 0 }),
			"cpu: DRC2 64 entries / 0 latency invalid"},
		{"width-zero", mod(func(c *Config) { c.IssueWidth = 0 }),
			"cpu: issue width 0 out of range [1,4]"},
		{"width-too-wide", mod(func(c *Config) { c.IssueWidth = 5 }),
			"cpu: issue width 5 out of range [1,4]"},
		{"drc-zero", mod(func(c *Config) { c.DRCEntries = 0 }),
			"cpu: DRC 0 entries / 1 ways invalid"},
		{"drc-uneven-ways", mod(func(c *Config) { c.DRCEntries = 100; c.DRCAssoc = 3 }),
			"cpu: DRC 100 entries / 3 ways invalid"},
		// The DRC bounds apply only to the mode that has a DRC: a baseline
		// machine with a nonsense DRC config is still valid.
		{"drc-ignored-outside-vcfr", func() Config {
			c := DefaultConfig(ModeBaseline)
			c.DRCEntries = 0
			return c
		}(), ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			switch {
			case tt.want == "" && err != nil:
				t.Errorf("Validate() = %v, want nil", err)
			case tt.want != "" && (err == nil || err.Error() != tt.want):
				t.Errorf("Validate() = %v, want %q", err, tt.want)
			}
		})
	}
}

// TestValidateMessagePrefix keeps every rejection message in the "cpu: "
// namespace so both CLIs and the HTTP 400 bodies stay greppable to the
// source of truth.
func TestValidateMessagePrefix(t *testing.T) {
	c := DefaultConfig(ModeVCFR)
	c.IssueWidth = 0
	if err := c.Validate(); err == nil || !strings.HasPrefix(err.Error(), "cpu: ") {
		t.Errorf("Validate() = %v, want a message prefixed \"cpu: \"", err)
	}
}

// TestParseModes pins the one mode vocabulary every surface parses: the
// vcfrsim, campaignsim and vxtrace -mode flags and the "mode" field of
// vcfrd requests. The empty string is rejected here; the surfaces that
// accept an absent mode (requests, and campaignsim -mode "") substitute
// their default before parsing. vxtrace additionally refuses "all".
func TestParseModes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []Mode // nil: rejected
	}{
		{"all", []Mode{ModeBaseline, ModeNaiveILR, ModeVCFR}},
		{"baseline", []Mode{ModeBaseline}},
		{"naive", []Mode{ModeNaiveILR}},
		{"vcfr", []Mode{ModeVCFR}},
		{"", nil},
		{"bogus", nil},
		{"quantum", nil},
		{"naive-ilr", nil}, // the String name is not a flag value
		{"VCFR", nil},
		{"all ", nil},
		{"baseline,vcfr", nil},
	} {
		got, err := ParseModes(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("ParseModes(%q) = %v, want an error", tc.in, got)
			} else if !strings.Contains(err.Error(), "want baseline, naive, vcfr, or all") {
				t.Errorf("ParseModes(%q) error %q does not list the vocabulary", tc.in, err)
			}
			continue
		}
		if err != nil || fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("ParseModes(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if fmt.Sprint(AllModes()) != "[baseline naive-ilr vcfr]" {
		t.Errorf("AllModes = %v, want report order baseline, naive-ilr, vcfr", AllModes())
	}
}
