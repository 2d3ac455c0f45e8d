package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestRejectsBadFormat pins that an unknown -format is refused before any
// experiment starts. The context is already cancelled, so an experiment
// that did start would fail its cells and the run would report those
// failures instead of the format.
func TestRejectsBadFormat(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-experiment", "fig13", "-format", "xml"},
		{"-experiment", "all", "-format", "xml"},
		{"-stats-json", "-format", "xml"},
	} {
		var out bytes.Buffer
		err := run(ctx, args, &out)
		if err == nil || !strings.Contains(err.Error(), `unknown -format "xml"`) {
			t.Errorf("experiments %v: err = %v, want unknown -format", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("experiments %v printed %q before refusing", args, out.String())
		}
	}
}

// TestJSONFormat checks that -format json prints one decodable array with
// one entry per experiment.
func TestJSONFormat(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-experiment", "table2", "-workloads", "bzip2", "-format", "json", "-workers", "1"}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID   string
		Rows [][]string
	}
	if err := json.Unmarshal(out.Bytes(), &tables); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(tables) != 1 || tables[0].ID != "table2" || len(tables[0].Rows) == 0 {
		t.Errorf("tables = %+v, want one non-empty table2", tables)
	}
}
