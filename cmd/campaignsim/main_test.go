package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"vcfr/internal/fleet"
	"vcfr/internal/server"
)

// TestJSONMatchesJobsAPI is the CLI-vs-HTTP identity wall: for every
// campaign kind, `campaignsim -json` must print exactly the bytes an
// in-process vcfrd serves at GET /v1/jobs/{id}/result for the equivalent
// POST /v1/jobs request.
func TestJSONMatchesJobsAPI(t *testing.T) {
	srv := server.New(server.Config{Addr: "127.0.0.1:0", Workers: 2})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	client := &fleet.Client{Base: "http://" + srv.Addr()}

	for _, tc := range []struct {
		kind server.JobKind
		args []string
		req  server.SimRequest
	}{
		{
			server.JobFaults,
			[]string{"-workloads", "bzip2,sjeng", "-mode", "vcfr", "-injections", "6", "-instructions", "5000", "-faults", "branch-target,return-address"},
			server.SimRequest{Workloads: []string{"bzip2", "sjeng"}, Mode: "vcfr", Injections: 6, Instructions: 5000, Faults: []string{"branch-target", "return-address"}},
		},
		{
			server.JobAttacks,
			[]string{"-workloads", "bzip2", "-mode", "naive", "-payloads", "print-and-exit", "-max-leaks", "4", "-advance", "500", "-instructions", "5000"},
			server.SimRequest{Workloads: []string{"bzip2"}, Mode: "naive", Payloads: []string{"print-and-exit"}, MaxLeaks: 4, AdvanceInsts: 500, Instructions: 5000},
		},
		{
			// -mode "" is accepted as all three modes, as the request's
			// absent mode is.
			server.JobMulticore,
			[]string{"-workloads", "bzip2", "-mode", "", "-cells", "1c2t", "-quantum", "1000", "-instructions", "5000", "-seed", "7"},
			server.SimRequest{Workloads: []string{"bzip2"}, Cells: []string{"1c2t"}, Quantum: 1000, Instructions: 5000, Seed: ptr(int64(7))},
		},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			var cli bytes.Buffer
			args := append([]string{"-kind", string(tc.kind), "-json", "-workers", "2"}, tc.args...)
			if err := run(ctx, args, &cli); err != nil {
				t.Fatalf("campaignsim %s: %v", strings.Join(args, " "), err)
			}

			id, err := client.Submit(ctx, tc.kind, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if err := client.Wait(ctx, id, nil); err != nil {
				t.Fatal(err)
			}
			http, err := client.Result(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cli.Bytes(), http) {
				t.Errorf("campaignsim -json differs from /v1/jobs result:\n--- cli ---\n%.400s\n--- http ---\n%.400s", cli.Bytes(), http)
			}
		})
	}
}

// TestRejectsBadInvocations pins the errors a wrong -kind or a bad
// campaign parameter produces before any simulation runs.
func TestRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "want faults, attacks, or multicore"},
		{[]string{"-kind", "sweep"}, `unknown campaign kind "sweep"`},
		{[]string{"-kind", "faults", "-mode", "quantum"}, `unknown mode "quantum"`},
		{[]string{"-kind", "faults", "-faults", "cosmic-ray"}, "cosmic-ray"},
		{[]string{"-kind", "attacks", "-payloads", "rootkit"}, "rootkit"},
		{[]string{"-kind", "multicore", "-cells", "2x4"}, "bad cell"},
		{[]string{"-kind", "multicore", "-workloads", "doom"}, "doom"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("campaignsim %v: err = %v, want it to mention %q", tc.args, err, tc.want)
		}
	}
}

func ptr[T any](v T) *T { return &v }
