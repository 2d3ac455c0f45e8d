package harness

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"vcfr/internal/cpu"
	"vcfr/internal/ilr"
	"vcfr/internal/program"
	"vcfr/internal/trace"
)

// TraceKey derives the trace-cache key for one run: the executed image's
// content hash and the layout seed identify the (workload, layout) pair; the
// mode and instruction cap pin the functional stream; Aux folds in the
// remaining stream-shaping inputs (rewriter options, program input) so two
// layouts that happen to share image bytes and seed still key apart.
func TraceKey(app *App, mode cpu.Mode, maxInsts uint64) trace.Key {
	return trace.Key{
		ImageHash:  imageHash(cpu.Deploy(app.R, mode).Img),
		LayoutSeed: app.R.Opts.Seed,
		Mode:       mode,
		MaxInsts:   maxInsts,
		Aux:        appAux(app),
	}
}

// imageHash is an FNV-1a content hash over the image's identity, entry
// point, and every segment's placement and bytes.
func imageHash(img *program.Image) uint64 {
	if img == nil {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	hstr := func(s string) {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		h.Write([]byte(s))
	}
	h32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:4], v)
		h.Write(b[:4])
	}
	hstr(img.Name)
	h32(img.Entry)
	for _, seg := range img.Segments {
		hstr(seg.Name)
		h32(seg.Addr)
		h32(uint32(seg.Perm))
		binary.LittleEndian.PutUint64(b[:], uint64(len(seg.Data)))
		h.Write(b[:])
		h.Write(seg.Data)
	}
	return h.Sum64()
}

// appAux hashes the remaining inputs that shape the functional stream: the
// full rewriter options and the program input served to SysGetChar.
func appAux(app *App) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v|", app.R.Opts)
	h.Write(app.W.Input)
	return h.Sum64()
}

// appKey identifies one prepared (workload, layout) pair for the runner's
// prepared-app cache.
func appKey(name string, cfg Config, opts ilr.Options) string {
	cfg = cfg.withDefaults()
	return fmt.Sprintf("%s|%d|%d|%d|%#v", name, cfg.Seed, cfg.Spread, cfg.Scale, opts)
}

// prepare is Prepare with a cancellation check. When the runner carries a
// trace cache, the prepared app (workload build + ILR rewrite, both
// deterministic in the derived seed) is also memoized, so repeated sweeps
// skip the rewrite.
func (s *Sweep) prepare(ctx context.Context, name string, cfg Config) (*App, error) {
	return s.prepareOpts(ctx, name, cfg, ilr.Options{})
}

// prepareOpts is PrepareOpts with a cancellation check and, when the runner
// carries a trace cache, prepared-app memoization.
func (s *Sweep) prepareOpts(ctx context.Context, name string, cfg Config, opts ilr.Options) (*App, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.r.Traces == nil {
		return PrepareOpts(name, cfg, opts)
	}
	key := appKey(name, cfg, opts)
	if app := s.r.cachedApp(key); app != nil {
		return app, nil
	}
	app, err := PrepareOpts(name, cfg, opts)
	if err != nil {
		return nil, err
	}
	s.r.storeApp(key, app)
	return app, nil
}

// runMode is App.RunContext behind a cancellation check, so a per-cell
// timeout or a sweep-wide cancel takes effect at the next run boundary.
func (s *Sweep) runMode(ctx context.Context, app *App, mode cpu.Mode, maxInsts uint64, mutate func(*cpu.Config)) (cpu.Result, cpu.Config, error) {
	if err := ctx.Err(); err != nil {
		return cpu.Result{}, cpu.Config{}, err
	}
	return app.RunContext(ctx, mode, maxInsts, mutate)
}
