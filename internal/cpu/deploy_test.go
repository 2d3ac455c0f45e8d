package cpu

import (
	"testing"

	"vcfr/internal/program"
)

// TestDeploy pins the per-mode selection: which image each mode executes,
// RandRA only under VCFR, and no translator at all under baseline — an
// untyped nil interface, not a typed nil *ilr.Tables that New's
// translator check would take for a real one.
func TestDeploy(t *testing.T) {
	res := rewriteSrc(t, "fib", fibSrc)
	for _, tc := range []struct {
		mode  Mode
		img   *program.Image
		trans bool
	}{
		{ModeBaseline, res.Orig, false},
		{ModeNaiveILR, res.Scattered, true},
		{ModeVCFR, res.VCFR, true},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			d := Deploy(res, tc.mode)
			if d.Img != tc.img {
				t.Errorf("Img = %s, want %s", d.Img.Name, tc.img.Name)
			}
			if d.Mode != tc.mode {
				t.Errorf("Mode = %v, want %v", d.Mode, tc.mode)
			}
			if tc.trans {
				if d.Trans != res.Tables {
					t.Errorf("Trans = %v, want the rewrite's tables", d.Trans)
				}
			} else if d.Trans != nil {
				t.Errorf("Trans = %#v, want an untyped nil interface", d.Trans)
			}
			if gotRA := d.RandRA != nil; gotRA != (tc.mode == ModeVCFR) {
				t.Errorf("RandRA set = %v, want it set only under VCFR", gotRA)
			}
			if d.Input != nil {
				t.Error("Deploy set Input; the caller owns it")
			}
		})
	}
}
