package bench

import (
	"strconv"
	"strings"
	"testing"

	"pmsf/internal/boruvka"
)

func TestProfileExperiment(t *testing.T) {
	tables := Profile(cfg())
	if len(tables) != 1 {
		t.Fatalf("%d tables", len(tables))
	}
	tb := tables[0]
	if len(tb.Rows) < 3 {
		t.Fatalf("only %d iterations profiled", len(tb.Rows))
	}
	// Bucket columns must sum to the list count on every row.
	for _, row := range tb.Rows {
		lists, _ := strconv.ParseInt(row[1], 10, 64)
		var sum int64
		for _, cell := range row[2:] {
			v, err := strconv.ParseInt(cell, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if sum != lists {
			t.Fatalf("bucket sum %d != lists %d", sum, lists)
		}
	}
	if len(tb.Notes) != 2 {
		t.Fatalf("notes %v", tb.Notes)
	}
}

func TestGraphStatsExperiment(t *testing.T) {
	tables := GraphStats(cfg())
	if len(tables) != 1 {
		t.Fatal("want one table")
	}
	tb := tables[0]
	if len(tb.Rows) != 12 { // 4 random + 4 mesh + 4 structured
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Structured inputs are trees: m = n-1 and one component.
	for _, row := range tb.Rows {
		if !strings.HasPrefix(row[0], "str") {
			continue
		}
		n, _ := strconv.Atoi(row[1])
		m, _ := strconv.Atoi(row[2])
		if m != n-1 || row[4] != "1" {
			t.Fatalf("structured row %v is not a spanning tree", row)
		}
	}
}

func TestFilterExperiment(t *testing.T) {
	tables := FilterExp(cfg())
	if len(tables) != 1 {
		t.Fatal("want one table")
	}
	tb := tables[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Survivors per vertex must stay roughly constant (the KKT lemma):
	// max/min ratio below 2 across densities 4x..20x.
	var lo, hi float64
	for i, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			lo, hi = v, v
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo > 2 {
		t.Fatalf("survivors/n varies too much: %.2f..%.2f", lo, hi)
	}
}

func TestConfigWorkersDefault(t *testing.T) {
	c := Config{}
	if len(c.workers()) != 4 {
		t.Fatalf("default workers %v", c.workers())
	}
	c = Config{Workers: []int{3}}
	if len(c.workers()) != 1 || c.workers()[0] != 3 {
		t.Fatalf("explicit workers %v", c.workers())
	}
}

func TestAblationExperiment(t *testing.T) {
	tables := Ablation(cfg())
	if len(tables) != 5 {
		t.Fatalf("%d ablation tables, want 5", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) < 2 {
			t.Fatalf("%s: only %d rows", tb.ID, len(tb.Rows))
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Fatalf("%s: ragged row %v", tb.ID, row)
			}
		}
	}
}

func TestDenseExperiment(t *testing.T) {
	tables := Dense(cfg())
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatal("dense experiment empty")
	}
}

func TestHybridExperiment(t *testing.T) {
	tables := Hybrid(cfg())
	if len(tables) != 1 || len(tables[0].Rows) < 4 {
		t.Fatal("hybrid experiment too small")
	}
	// p=1 row: exactly one tree spanning every vertex, zero collisions.
	row := tables[0].Rows[0]
	if row[0] != "1" || row[1] != "1" || row[3] != "100.0%" || row[4] != "0" {
		t.Fatalf("p=1 row is not pure Prim: %v", row)
	}
}

func TestWeightsAndCCBenchExperiments(t *testing.T) {
	w := WeightsExp(cfg())
	if len(w) != 1 || len(w[0].Rows) != 4 {
		t.Fatalf("weights experiment shape: %d tables", len(w))
	}
	c := CCBench(cfg())
	if len(c) != 1 || len(c[0].Rows) != 5 {
		t.Fatalf("ccbench experiment shape")
	}
}

func TestCompactExperiment(t *testing.T) {
	tables := CompactExp(cfg())
	wantIDs := []string{"compact.uniform", "compact.contract-16x", "compact.contract-256x"}
	if len(tables) != len(wantIDs) {
		t.Fatalf("%d compact tables, want %d", len(tables), len(wantIDs))
	}
	for i, tb := range tables {
		if tb.ID != wantIDs[i] {
			t.Errorf("table %d is %q, want %q", i, tb.ID, wantIDs[i])
		}
		if len(tb.Rows) != len(boruvka.SortEngines()) {
			t.Fatalf("%s: %d rows, want one per sort engine (%d)", tb.ID, len(tb.Rows), len(boruvka.SortEngines()))
		}
		for j, row := range tb.Rows {
			if row[0] != boruvka.SortEngines()[j].String() || len(row) != len(tb.Header) {
				t.Fatalf("%s: row %v under header %v", tb.ID, row, tb.Header)
			}
		}
		if len(tb.Notes) != 1 || !strings.Contains(tb.Notes[0], "baseline at p=2") {
			t.Fatalf("%s: notes %q, want the speedup note at p=2", tb.ID, tb.Notes)
		}
	}
	// The speedup note is taken at the largest p, not the last one given.
	for _, tb := range CompactExp(Config{Scale: Tiny, Seed: 1, Workers: []int{2, 1}}) {
		if len(tb.Notes) != 1 || !strings.HasSuffix(tb.Notes[0], "at p=2") {
			t.Fatalf("%s with -p 2,1: notes %q, want the speedup note at p=2", tb.ID, tb.Notes)
		}
	}
}

func TestMarkOversubscribed(t *testing.T) {
	tb := &Table{Header: []string{"algorithm", "p=1", "p=2", "p=4", "p=8", "speedup(p=8)"}}
	tb.MarkOversubscribed(2)
	want := "oversubscribed: p=4, p=8 above GOMAXPROCS=2 (workers share 2 OS threads)"
	if len(tb.Notes) != 1 || tb.Notes[0] != want {
		t.Fatalf("notes %q, want [%q]", tb.Notes, want)
	}
	tb = &Table{Header: []string{"algorithm", "p=1", "p=2"}}
	tb.MarkOversubscribed(2)
	if len(tb.Notes) != 0 {
		t.Fatalf("no column above GOMAXPROCS, yet notes %q", tb.Notes)
	}
}
