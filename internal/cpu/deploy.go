package cpu

import "vcfr/internal/ilr"

// Deploy selects what a processor in the given mode executes for one
// rewrite: the original image under baseline; the scattered image, fetched
// through the location map, under naive ILR; the VCFR image with its tables
// and randomized return addresses under VCFR. It is the one place that
// decision is made. The caller sets Input. An unknown mode yields a proc
// with no image, which New refuses when it validates the config.
func Deploy(res *ilr.Result, mode Mode) ClusterProc {
	switch mode {
	case ModeBaseline:
		// No translator: Trans stays an untyped nil interface, never a
		// typed nil *ilr.Tables that would compare non-nil.
		return ClusterProc{Img: res.Orig, Mode: mode}
	case ModeNaiveILR:
		return ClusterProc{Img: res.Scattered, Trans: res.Tables, Mode: mode}
	case ModeVCFR:
		return ClusterProc{Img: res.VCFR, Trans: res.Tables, RandRA: res.RandRA, Mode: mode}
	}
	return ClusterProc{Mode: mode}
}
