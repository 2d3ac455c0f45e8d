package attack

import (
	"context"
	"fmt"

	"vcfr/internal/cpu"
	"vcfr/internal/gadget"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
)

// buildChain compiles one payload template against a gadget pool.
func buildChain(pool []gadget.Gadget, p Payload) (gadget.Chain, error) {
	switch p {
	case PayloadWrite:
		return gadget.BuildWriteChain(pool, WriteAddr, WriteValue)
	case PayloadExfil:
		return gadget.BuildExfilChain(pool, SecretAddr, len(secret))
	default:
		return gadget.BuildPrintChain(pool, marker)
	}
}

// chainKey fingerprints a chain by its stack words, so a chain that already
// failed is not pointlessly re-fired when the view grows elsewhere.
func chainKey(c gadget.Chain) string {
	return fmt.Sprint(c.Words)
}

// staticPool is the full-knowledge gadget view of one mode: what an
// attacker holding the program binary can compile against before leaking
// anything. Under baseline that is simply the binary's pool. Under naive
// ILR the binary still yields every intended-instruction gadget, because
// original addresses stay live (the fetch path translates them) — the
// static phase exists to surface exactly that hole. Under VCFR the pool is
// scanned from the deployed image, but every address it names requires the
// randomized tag the attacker does not have.
func staticPool(res *ilr.Result, mode cpu.Mode) []gadget.Gadget {
	switch mode {
	case cpu.ModeNaiveILR:
		intended := make(map[uint32]bool)
		for _, a := range res.Tables.OrigAddrs() {
			intended[a] = true
		}
		var out []gadget.Gadget
		for _, g := range gadget.Scan(res.Orig, 0) {
			if intended[g.Addr] {
				out = append(out, g)
			}
		}
		return out
	case cpu.ModeVCFR:
		return gadget.Scan(res.VCFR, 0)
	default:
		return gadget.Scan(res.Orig, 0)
	}
}

// Static is the full-knowledge diagnostic phase of one cell: pool size,
// whether the payload compiled, and what the machine did when the chain was
// fired at the deployment's first epoch.
type Static struct {
	PoolSize int     `json:"pool_size"`
	Built    bool    `json:"built"`
	ChainLen int     `json:"chain_len"` // stack words, when built
	Outcome  Outcome `json:"outcome"`
}

// runStatic executes one cell's full-knowledge phase. The returned error is
// only ever the context's: an unfinished phase must not golden-pin as a
// no-chain result.
func runStatic(ctx context.Context, app *harness.App, mode cpu.Mode, payload Payload, cfg Config, st *Stats) (Static, error) {
	pool := staticPool(app.R, mode)
	s := Static{PoolSize: len(pool), Outcome: OutcomeNoChain}
	ch, err := buildChain(pool, payload)
	if err != nil {
		return s, nil
	}
	s.Built, s.ChainLen = true, len(ch.Words)
	st.ChainsBuilt++
	o := fire(ctx, app, mode, app.R, ch, payload, cfg.MaxInsts)
	if o == "" {
		return s, harness.NotExecuted(ctx, "attack cell")
	}
	st.AddFire(o)
	s.Outcome = o
	return s, nil
}
