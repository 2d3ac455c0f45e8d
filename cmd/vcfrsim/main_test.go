package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRejectsTraceWithStatsJSON pins that -trace and -stats-json are
// refused together on every input path: the workload path would drop the
// trace, and the ELF and source paths would print the text trace table
// ahead of the JSON envelope.
func TestRejectsTraceWithStatsJSON(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "bzip2", "-mode", "all", "-trace", "2", "-stats-json"},
		{"-elf", "../../internal/realbin/fixtures/fib.elf", "-mode", "vcfr", "-trace", "2", "-stats-json"},
		{"-trace", "1", "-stats-json", "app.s"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), args, &out)
		if err == nil || !strings.Contains(err.Error(), "-trace cannot be combined with -stats-json") {
			t.Errorf("vcfrsim %v: err = %v, want the combination refused", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("vcfrsim %v printed %q before refusing", args, out.String())
		}
	}
}

// TestTraceTable checks that -trace prints its table, one row per traced
// instruction, ahead of the text report.
func TestTraceTable(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-workload", "bzip2", "-mode", "vcfr", "-trace", "2", "-instructions", "1000"}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 5 || lines[0] != "--- trace (vcfr): first 2 instructions ---" ||
		!strings.HasPrefix(lines[1], "seq") || !strings.HasPrefix(lines[2], "0 ") ||
		!strings.HasPrefix(lines[3], "1 ") || lines[4] != "=== vcfr ===" {
		t.Errorf("unexpected trace output:\n%s", out.String())
	}
}
