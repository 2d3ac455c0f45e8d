package ilr

import (
	"reflect"
	"sync"
	"testing"

	"vcfr/internal/workloads"
)

// TestRerandomizeLayoutsDisjoint pins the property the periodic defense
// relies on: two rewrites of the same program under different seeds place
// almost every instruction at a different randomized address, and each epoch
// independently clears the entropy floor the paper's security argument
// needs. A re-randomization that mostly reproduced the old layout would let
// stale disclosures keep working.
func TestRerandomizeLayoutsDisjoint(t *testing.T) {
	cases := []struct {
		workload   string
		seedA      int64
		seedB      int64
		maxOverlap float64 // fraction of instructions allowed to keep their slot
		minEntropy float64 // bits; floor for both epochs
	}{
		{"bzip2", 1, 2, 0.02, 10},
		{"bzip2", 42, 43, 0.02, 10},
		{"sjeng", 7, 1007, 0.02, 10},
		{"xalan", 99, 100, 0.02, 10},
	}
	for _, tc := range cases {
		w, err := workloads.ByName(tc.workload, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Rewrite(w.Img, Options{Seed: tc.seedA})
		if err != nil {
			t.Fatal(err)
		}
		b, err := a.Rerandomize(tc.seedB)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Stats.EntropyBits; got < tc.minEntropy {
			t.Errorf("%s seed %d: entropy %.1f bits below floor %.1f",
				tc.workload, tc.seedA, got, tc.minEntropy)
		}
		if got := b.Stats.EntropyBits; got < tc.minEntropy {
			t.Errorf("%s seed %d: entropy %.1f bits below floor %.1f",
				tc.workload, tc.seedB, got, tc.minEntropy)
		}
		origs := a.Tables.OrigAddrs()
		same := 0
		for _, o := range origs {
			ra, oka := a.Tables.ToRand(o)
			rb, okb := b.Tables.ToRand(o)
			if !oka || !okb {
				t.Fatalf("%s: instruction %#x missing from an epoch's tables", tc.workload, o)
			}
			if ra == rb {
				same++
			}
		}
		if frac := float64(same) / float64(len(origs)); frac > tc.maxOverlap {
			t.Errorf("%s seeds %d/%d: %.1f%% of %d instructions kept their slot (max %.1f%%)",
				tc.workload, tc.seedA, tc.seedB, 100*frac, len(origs), 100*tc.maxOverlap)
		}
	}
}

// TestRerandomizeTablesConsistentAfterSwap walks a chain of mid-run swaps
// and checks each epoch's tables stay internally consistent — the invariants
// the pipeline's resolveTarget/storageAddr depend on — and that old-epoch
// randomized addresses go dead: almost none survive into the next epoch's
// mapping, and every one that does not is prohibited as a control-transfer
// target (default-deny).
func TestRerandomizeTablesConsistentAfterSwap(t *testing.T) {
	w, err := workloads.ByName("sjeng", 1)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Rewrite(w.Img, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wantOrigs := cur.Tables.OrigAddrs()
	for epoch := 0; epoch < 4; epoch++ {
		next, err := cur.Rerandomize(int64(100 + epoch))
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		nt := next.Tables

		// Bijection: every original instruction maps, round-trips, and the
		// instruction set is exactly the one the first epoch had.
		origs := nt.OrigAddrs()
		if len(origs) != len(wantOrigs) {
			t.Fatalf("epoch %d: %d instructions, first epoch had %d",
				epoch, len(origs), len(wantOrigs))
		}
		lo, hi := nt.RandRange()
		for i, o := range origs {
			if o != wantOrigs[i] {
				t.Fatalf("epoch %d: instruction set diverged at %#x vs %#x", epoch, o, wantOrigs[i])
			}
			r, ok := nt.ToRand(o)
			if !ok {
				t.Fatalf("epoch %d: %#x unmapped", epoch, o)
			}
			back, ok := nt.ToOrig(r)
			if !ok || back != o {
				t.Fatalf("epoch %d: round trip %#x -> %#x -> %#x,%v", epoch, o, r, back, ok)
			}
			if r < lo || r >= hi {
				t.Fatalf("epoch %d: %#x outside RandRange [%#x,%#x)", epoch, r, lo, hi)
			}
			// A randomized instruction's original home must be prohibited
			// unless it is an explicitly allowed failover target.
			if !nt.Prohibited(o) && nt.AllowedUnrand() == 0 {
				t.Fatalf("epoch %d: %#x reachable without a failover entry", epoch, o)
			}
		}
		if nt.Len() != len(origs) {
			t.Fatalf("epoch %d: Len %d != %d origs", epoch, nt.Len(), len(origs))
		}

		// Stale-leak death: an old-epoch randomized address survives only by
		// coincidental reuse, and when unmapped it must be prohibited.
		reused := 0
		for _, o := range wantOrigs {
			oldR, _ := cur.Tables.ToRand(o)
			if _, ok := nt.ToOrig(oldR); ok {
				reused++
				continue
			}
			if !nt.Prohibited(oldR) {
				t.Fatalf("epoch %d: stale address %#x not prohibited", epoch, oldR)
			}
		}
		if frac := float64(reused) / float64(len(wantOrigs)); frac > 0.10 {
			t.Fatalf("epoch %d: %.1f%% of old randomized addresses still map", epoch, 100*frac)
		}
		cur = next
	}
}

// rewriteArtifacts is what one randomization produces beyond the shared
// inputs (the original image and its CFG).
func rewriteArtifacts(r *Result) []any {
	return []any{r.Tables, r.Scattered, r.VCFR, r.RandRA, r.Stats, r.Opts}
}

// TestRerandomizeMatchesRewrite pins the CFG reuse: re-randomizing a
// Result equals rewriting its original image from scratch with the new
// seed, for every layout option.
func TestRerandomizeMatchesRewrite(t *testing.T) {
	cases := []struct {
		workload string
		opts     Options
	}{
		{"bzip2", Options{Seed: 1}},
		{"xalan", Options{Seed: 42}},
		{"gcc", Options{Seed: 3, PageConfined: true}},
		{"sjeng", Options{Seed: 4, RetRand: RetRandSoftware}},
		{"h264ref", Options{Seed: 5, RetRand: RetRandNone, Spread: 4}},
		{"elf-dispatch", Options{Seed: 6}},
	}
	for _, tc := range cases {
		w, err := workloads.ByName(tc.workload, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Rewrite(w.Img, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{tc.opts.Seed, 7, 1 << 40} {
			got, err := res.Rerandomize(seed)
			if err != nil {
				t.Fatalf("%s seed %d: Rerandomize: %v", tc.workload, seed, err)
			}
			opts := tc.opts
			opts.Seed = seed
			want, err := Rewrite(w.Img, opts)
			if err != nil {
				t.Fatalf("%s seed %d: Rewrite: %v", tc.workload, seed, err)
			}
			if !reflect.DeepEqual(rewriteArtifacts(got), rewriteArtifacts(want)) {
				t.Errorf("%s seed %d: Rerandomize differs from Rewrite", tc.workload, seed)
			}
			if got.Orig != res.Orig || got.Graph != res.Graph {
				t.Errorf("%s seed %d: Rerandomize did not reuse the original image and CFG", tc.workload, seed)
			}
		}
	}
}

// TestRerandomizeConcurrentShared re-randomizes one shared Result from 8
// goroutines — the attack campaign's concurrent cells share one CFG — and
// checks every epoch against a sequential Rewrite. Run under -race, it also
// proves the shared graph is only read.
func TestRerandomizeConcurrentShared(t *testing.T) {
	w, err := workloads.ByName("xalan", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rewrite(w.Img, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = res.Rerandomize(int64(100 + i))
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		want, err := Rewrite(w.Img, Options{Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rewriteArtifacts(got[i]), rewriteArtifacts(want)) {
			t.Errorf("worker %d: concurrent Rerandomize differs from Rewrite", i)
		}
	}
}
