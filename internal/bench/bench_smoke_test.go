package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestAllExperimentsQuick smoke-runs every experiment at quick sizes:
// the harness itself must never error, and each runner must emit its
// table header.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Experiments[id](t.Context(), &buf, Config{Quick: true, Seed: 1}); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out := buf.String()
			if !strings.Contains(out, "==") || !strings.Contains(out, "expected") && id != "T8" {
				t.Fatalf("%s produced unexpected output:\n%s", id, out)
			}
		})
	}
}

// TestJSONOutput: with Config.JSON every runner must emit pure JSON
// Lines — one {"title", "columns", "rows"} object per table, no text
// banners or prose — so BENCH_*.json trajectory files are parseable
// without scraping.
func TestJSONOutput(t *testing.T) {
	for _, id := range []string{"T1", "T8", "P1", "D2", "S1"} {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Experiments[id](t.Context(), &buf, Config{Quick: true, Seed: 1, JSON: true}); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			dec := json.NewDecoder(&buf)
			tables := 0
			for dec.More() {
				var tb struct {
					Title   string     `json:"title"`
					Columns []string   `json:"columns"`
					Rows    [][]string `json:"rows"`
				}
				if err := dec.Decode(&tb); err != nil {
					t.Fatalf("%s: line %d: %v", id, tables+1, err)
				}
				if tb.Title == "" || len(tb.Columns) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("%s: empty table %+v", id, tb)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("%s: row has %d cells for %d columns", id, len(row), len(tb.Columns))
					}
				}
				tables++
			}
			if tables == 0 {
				t.Fatalf("%s emitted no JSON tables", id)
			}
		})
	}
}

func TestIDsOrder(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Experiments) {
		t.Fatalf("IDs() returned %d of %d", len(ids), len(Experiments))
	}
	if ids[0] != "T1" {
		t.Fatalf("first id = %s", ids[0])
	}
}
